package rtsim

import "l15cache/internal/memo"

// AppendFingerprint encodes the result-determining SoC parameters into a
// memo canonical encoding (DESIGN.md §12) and reports whether the config
// is memoizable at all. A Config carrying a flight Recorder is not: a
// cache hit skips the simulation and therefore the event stream the
// recorder exists to capture, so recorded trials must always recompute
// and the caller must pass a nil fingerprint to the runner.
//
// Defaults are normalised before encoding (the same fill Run applies),
// so a zero ClusterSize and an explicit 4 key identically.
func (c Config) AppendFingerprint(e *memo.Encoder) bool {
	if c.Recorder != nil {
		return false
	}
	if err := c.fill(); err != nil {
		// An invalid config never reaches a result worth caching; encode
		// it raw and let Run report the error on every attempt.
		e.Bool("rtsim.invalid", true)
	}
	e.I64("rtsim.cores", int64(c.Cores))
	e.I64("rtsim.cluster_size", int64(c.ClusterSize))
	e.I64("rtsim.zeta", int64(c.Zeta))
	e.I64("rtsim.way_bytes", c.WayBytes)
	e.F64("rtsim.horizon_periods", c.HorizonPeriods)
	e.F64("rtsim.way_config_delay", c.WayConfigDelay)
	e.Bool("rtsim.partitioned", c.Partitioned)
	return true
}
