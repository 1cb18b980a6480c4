package cong

import "puffer/internal/obs"

// SetObs attaches telemetry to the estimator: pass spans (with shard
// children) on the recorder's tracer, and the cong.estimates counter of
// completed passes on its registry. A nil recorder — the default —
// disables everything at nil-check cost.
func (e *Estimator) SetObs(rec *obs.Recorder) {
	e.rec = rec
	e.cEstimates = rec.Counter("cong.estimates")
}
