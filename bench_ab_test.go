package bmx_test

import (
	"encoding/json"
	"os"
	"testing"

	"bmx/internal/obs"
)

// readBench loads a committed benchmark envelope by its artifact name from
// BENCH_REF.json, the regression-gate reference, which embeds every
// deterministic simnet envelope keyed by filename. The per-run BENCH_*.json
// artifacts are not committed, so the tests read the reference copy.
func readBench(t *testing.T, name string) obs.BenchSummary {
	t.Helper()
	raw, err := os.ReadFile("BENCH_REF.json")
	if err != nil {
		t.Fatalf("committed reference missing: %v", err)
	}
	var ref map[string]obs.BenchSummary
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("BENCH_REF.json: %v", err)
	}
	b, ok := ref[name]
	if !ok {
		t.Fatalf("BENCH_REF.json has no %s envelope (refresh it with `make bench-ref`)", name)
	}
	return b
}

// TestMigrationBenchBeatsBaseline pins the PR's A/B claim on the committed
// artifacts: on the identical zipf workload and seed, heat-driven ownership
// migration plus the remote-acquire fast path must strictly lower the
// remote-access ratio and the owner-chain hops paid per acquire, without
// costing messages per mutator op. The envelopes are regenerated together
// by `make bench-json-sim` (deterministic simnet) and committed through
// `make bench-ref`, so a protocol change that erodes the win fails here
// once the reference is refreshed, and in the CI gate before that.
func TestMigrationBenchBeatsBaseline(t *testing.T) {
	base := readBench(t, "BENCH_9_zipf.json")
	mig := readBench(t, "BENCH_10_zipf_migrate.json")

	if mig.RemoteAccessRatio >= base.RemoteAccessRatio {
		t.Errorf("remote access ratio: migrate %.4f, baseline %.4f; migration must strictly lower it",
			mig.RemoteAccessRatio, base.RemoteAccessRatio)
	}
	bh, ok1 := base.Series["dsm.acquire.hops"]
	mh, ok2 := mig.Series["dsm.acquire.hops"]
	if !ok1 || !ok2 {
		t.Fatal("dsm.acquire.hops series missing from an envelope")
	}
	if mh.Final.Sum >= bh.Final.Sum {
		t.Errorf("owner-chain hops: migrate paid %d, baseline %d; migration must strictly lower them",
			mh.Final.Sum, bh.Final.Sum)
	}
	if mig.MsgsPerMutatorOp > base.MsgsPerMutatorOp {
		t.Errorf("msgs per mutator op: migrate %.4f, baseline %.4f; the optimisation may not cost messages",
			mig.MsgsPerMutatorOp, base.MsgsPerMutatorOp)
	}
}

// TestCoalesceBenchCostsNothing pins the coalescing-only envelope: batching
// invariant-2 location updates must not change the workload's consistency
// figures — same remote-access ratio, no extra messages per op.
func TestCoalesceBenchCostsNothing(t *testing.T) {
	base := readBench(t, "BENCH_9_zipf.json")
	coal := readBench(t, "BENCH_10_coalesce.json")
	if coal.RemoteAccessRatio != base.RemoteAccessRatio {
		t.Errorf("remote access ratio moved under coalescing: %.4f vs %.4f",
			coal.RemoteAccessRatio, base.RemoteAccessRatio)
	}
	if coal.MsgsPerMutatorOp > base.MsgsPerMutatorOp {
		t.Errorf("msgs per mutator op rose under coalescing: %.4f vs %.4f",
			coal.MsgsPerMutatorOp, base.MsgsPerMutatorOp)
	}
}
