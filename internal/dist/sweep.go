package dist

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/pool"
	"repro/internal/wire"
)

// Distributed Monte-Carlo sweep (the T5 workload). The fixed-size
// chunks of measure.SweepParallel are pure functions of their
// descriptor — sample count, pre-derived splitmix seed, ε ladder,
// sampling box — so they ship over the same wire and dispatch engine
// as simulation jobs: chunk i's counts land in slot i no matter which
// worker computed them, and the merge is the same serial
// measure.MergeChunks the in-process pool uses. The result is
// byte-identical to measure.SweepParallel for every fleet shape,
// window depth, and in-worker pool size — and a sweep can share a
// Fleet session with the simulation batches around it (exps.T5 runs
// over the same dialed fleet as T1–T4, or in-process when that fleet
// is nil).

// Sweep runs the n-sample Monte-Carlo sweep across the session's
// fleet and returns the merged Stats, identical to
// measure.SweepParallel(n, epsilons, box, seed, workers). workers is
// forwarded to the fleet as the in-worker pool hint (per-host Pool
// hints override it). The error is non-nil when the fleet lost
// chunks; the caller can then fall back to the in-process sweep,
// which determinism makes exact.
func (f *Fleet) Sweep(n int, epsilons []float64, box measure.Box, seed int64, workers int) (measure.Stats, error) {
	chunks, err := f.sweepChunks(n, epsilons, box, seed, workers)
	if err != nil {
		return measure.Stats{}, err
	}
	return measure.MergeChunks(chunks, n), nil
}

// SweepOrFallback is Sweep with the standard degradation policy: a
// mid-run fleet loss completes in-process — byte-identical by the
// determinism guarantee — after a warning on the config's stderr. A
// failure keeps every chunk the fleet did deliver and recomputes only
// the holes, so a fleet dying late costs a remainder, not the whole
// sweep twice. A nil fleet runs measure.SweepParallel.
func (f *Fleet) SweepOrFallback(n int, epsilons []float64, box measure.Box, seed int64, workers int) measure.Stats {
	if f == nil {
		return measure.SweepParallel(n, epsilons, box, seed, workers)
	}
	chunks, err := f.sweepChunks(n, epsilons, box, seed, workers)
	if err == nil {
		return measure.MergeChunks(chunks, n)
	}
	var missing []int
	for i, c := range chunks {
		if c.Samples == 0 { // never delivered (real chunks draw ≥ 1 sample)
			missing = append(missing, i)
		}
	}
	// The chunk count stays in the message text (not an attribute): the
	// window tests assert the exact "for k/n chunks" phrasing, and a
	// human scanning a log wants the damage extent inline anyway.
	mFallbacks.Inc()
	logOf(f.cfg).Warn(fmt.Sprintf("dist: distributed sweep failed; falling back in-process for %d/%d chunks", len(missing), len(chunks)),
		"err", err, "hosts", hostSummary(f.cfg))
	pool.Do(len(missing), pool.Workers(workers, len(missing)), func(k int) {
		i := missing[k]
		chunks[i] = measure.Sweep(measure.ChunkSamples(n, i), epsilons, box, measure.ChunkSeed(seed, i))
	})
	return measure.MergeChunks(chunks, n)
}

// sweepChunks dispatches the sweep's chunks to the session's fleet and
// returns the per-chunk Stats slice, populated as far as the fleet
// got: on an error, delivered chunks keep their (complete, pure)
// counts and undelivered chunks are zero — distinguishable by
// Samples == 0, since every real chunk draws at least one sample. The
// fallback path uses that to recompute only the holes.
func (f *Fleet) sweepChunks(n int, epsilons []float64, box measure.Box, seed int64, workers int) ([]measure.Stats, error) {
	nChunks := measure.NumChunks(n)
	if nChunks == 0 {
		return nil, nil
	}
	chunks := make([]measure.Stats, nChunks)
	tasks := make([]task, nChunks)
	for k := range tasks {
		k := k
		tasks[k] = task{
			id: k,
			payload: wire.EncodeSweepJob(wire.SweepJob{
				Seed: measure.ChunkSeed(seed, k),
				N:    measure.ChunkSamples(n, k),
				Par:  workers,
				Eps:  epsilons,
				Box:  box,
			}),
			deliver: func(body []byte) error {
				s, err := wire.DecodeMeasureStats(body)
				if err != nil {
					return err
				}
				chunks[k] = s
				return nil
			},
		}
	}
	err := f.dispatch(tasks, wire.FrameSweepJob, wire.FrameSweepResult)
	return chunks, err
}
