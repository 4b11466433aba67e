package equiv

// PeakLive returns the peak live-node count of o's manager, for the
// external tests.
func PeakLive(o *Oracle) int64 { return o.mgr.Stats().PeakLive }
