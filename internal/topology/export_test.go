package topology

// OracleOf exposes the map-based reference search to the external-package
// tests that run it on generated backbones (package workload imports
// topology, so those tests cannot live in this package).
var OracleOf = oracleOf
