package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bmx/internal/obs"
)

// CI perf gate: `bmxstat -bench BENCH_6_flip.json -ref BENCH_REF.json
// -gate 25` compares a fresh benchmark envelope against the committed
// reference and exits non-zero when a gated metric regressed by more than
// the given percentage. `-make-ref` builds the reference file from a
// comma-separated list of envelopes, keyed by filename base.

// gateMetrics are the envelope fields the gate watches: the paper's
// headline costs. Latency quantiles come from the power-of-two histogram
// series, so they only move when latency moves across a bucket boundary —
// coarse, which is exactly what a drift gate wants.
const acquireTicksSeries = "dsm.acquire.ticks"

// refKey names an envelope inside BENCH_REF.json: the artifact's filename
// base, so the reference and the Makefile agree without a manifest.
func refKey(path string) string {
	return filepath.Base(strings.TrimSuffix(path, ","))
}

func readBenchRef(path string) map[string]obs.BenchSummary {
	r := open(path)
	defer r.Close()
	ref := map[string]obs.BenchSummary{}
	if err := json.NewDecoder(r).Decode(&ref); err != nil {
		fail(fmt.Errorf("%s: %v", path, err))
	}
	return ref
}

// makeRef merges the given benchmark envelopes into one reference document
// on stdout, keyed by filename base.
func makeRef(benchList string) {
	ref := map[string]obs.BenchSummary{}
	for _, p := range strings.Split(benchList, ",") {
		ref[refKey(p)] = readBench(p)
	}
	emitJSON(ref)
}

// gateViolations compares one current envelope against its reference and
// returns a human-readable line per violated metric. pct is the allowed
// upward drift in percent; improvements never violate.
func gateViolations(cur, ref obs.BenchSummary, pct float64) []string {
	var out []string
	worse := func(metric string, cur, ref float64) {
		if ref <= 0 {
			// A zero reference means the metric must stay zero: any
			// appearance is a regression no tolerance excuses (this is how
			// syncs-per-flip catches a group-commit discipline break).
			if cur > 0 {
				out = append(out, fmt.Sprintf("%s: %.2f appeared (reference is 0)", metric, cur))
			}
			return
		}
		drift := (cur - ref) / ref * 100
		if drift > pct {
			out = append(out, fmt.Sprintf("%s: %.2f vs reference %.2f (+%.1f%% > %.1f%% allowed)",
				metric, cur, ref, drift, pct))
		}
	}
	worse("msgs-per-mutator-op", cur.MsgsPerMutatorOp, ref.MsgsPerMutatorOp)
	worse("gc-copy-words", float64(cur.GCCopyWords), float64(ref.GCCopyWords))
	if cs, ok := cur.Series[acquireTicksSeries]; ok {
		if rs, rok := ref.Series[acquireTicksSeries]; rok {
			worse("acquire-ticks-p99", float64(cs.Final.P99), float64(rs.Final.P99))
		}
	}
	// Syncs-per-flip only exists on durable runs; NaN guards the
	// flip-less edge where the derivation divides by zero.
	if !math.IsNaN(cur.SyncsPerFlip) && !math.IsNaN(ref.SyncsPerFlip) {
		worse("syncs-per-flip", cur.SyncsPerFlip, ref.SyncsPerFlip)
	}
	// The locality pair: a protocol or driver change that makes acquires
	// leave their node more often, or strands more objects away from their
	// dominant writer, regresses the figure the heat table exists to watch.
	worse("remote-access-ratio", cur.RemoteAccessRatio, ref.RemoteAccessRatio)
	worse("owner-mismatch-count", float64(cur.OwnerMismatchCount), float64(ref.OwnerMismatchCount))
	return out
}

// runGate gates one envelope against the reference document and exits the
// process: 0 when every metric holds, 1 on any violation.
func runGate(benchPath, refPath string, pct float64) {
	cur := readBench(benchPath)
	ref := readBenchRef(refPath)
	key := refKey(benchPath)
	refSum, ok := ref[key]
	if !ok {
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fail(fmt.Errorf("no reference for %q in %s (has: %s)", key, refPath, strings.Join(keys, ", ")))
	}
	violations := gateViolations(cur, refSum, pct)
	if len(violations) == 0 {
		fmt.Printf("gate PASS %s: msgs/op %.2f, gc copy %d words, acquire p99 %d, within %.0f%% of reference\n",
			key, cur.MsgsPerMutatorOp, cur.GCCopyWords, cur.Series[acquireTicksSeries].Final.P99, pct)
		return
	}
	fmt.Printf("gate FAIL %s: %d metric(s) regressed beyond %.0f%%\n", key, len(violations), pct)
	for _, v := range violations {
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}
