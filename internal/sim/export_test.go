package sim

// Oracle is the reference simulator of oracle_test.go, exported to the
// external sim_test package for the parity tests.
type Oracle = oracleHierarchy

// NewOracle builds the reference simulator over the given levels,
// processor side first.
func NewOracle(cfgs ...CacheConfig) (*Oracle, error) { return newOracleHierarchy(cfgs...) }
