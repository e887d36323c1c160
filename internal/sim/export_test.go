package sim

// Oracle is the reference simulator of oracle_test.go, exported to the
// external sim_test package for the parity tests.
type Oracle = oracleHierarchy

// NewOracle builds the reference simulator over the given levels,
// processor side first.
func NewOracle(cfgs ...CacheConfig) (*Oracle, error) { return newOracleHierarchy(cfgs...) }

// ForcePartitions makes h switch to at most k set partitions at its
// first Strides call, whatever the CPU count (see forcePartitions).
func ForcePartitions(h *Hierarchy, k int) { forcePartitions(h, k) }

// Partitions returns the number of set partitions h simulates on: 0
// while it is sequential.
func (h *Hierarchy) Partitions() int { return len(h.parts) }
