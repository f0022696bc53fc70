package conformance

import (
	"testing"

	"repro/internal/cluster"
)

// meshNFltrPerSub keeps every leg's per-member filter-scan set several
// times the L2 size: the per-filter cost is dominated by cache misses,
// so a scan set that fits L2 during the single-broker calibration but is
// evicted by the other members' interleaved scans in the live mesh would
// break the constant-t_fltr premise both sides must share. Deep in the
// cache hierarchy the cost is uniform and the linear model holds.
const meshNFltrPerSub = 16000

// checkMeshTapes asserts the count half of a mesh leg: every serving
// member's tape holds its share of the messages, and is one
// work-conserving FIFO server's.
func checkMeshTapes(t *testing.T, cfg MeshConfig, res MeshResult, servedPerMember int) {
	t.Helper()
	for i, m := range res.Members {
		if len(m.Tape) != servedPerMember {
			t.Errorf("%v member %d: tape holds %d entries, want %d", cfg.Kind, i, len(m.Tape), servedPerMember)
		}
		if err := CheckTape(m.Tape); err != nil {
			t.Errorf("%v member %d: %v", cfg.Kind, i, err)
		}
	}
}

// TestMeshTapes: a PSR mesh with rotating origins services each message
// once, at its ingress member, and never forwards; an SSR mesh floods
// every message to every member. Each member's tape is one FIFO server's.
func TestMeshTapes(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	for _, kind := range []cluster.TopologyKind{cluster.TopologyPSR, cluster.TopologySSR} {
		cfg := MeshConfig{Kind: kind, Members: 3, Messages: 1200, Warmup: 120, Seed: 5}
		res, err := RunMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Members) != cfg.Members {
			t.Fatalf("%v: %d members serviced messages, want %d", kind, len(res.Members), cfg.Members)
		}
		served := cfg.Messages / cfg.Members
		if kind == cluster.TopologySSR {
			served = cfg.Messages
			if res.Forwards == 0 {
				t.Error("SSR flood forwarded nothing")
			}
		} else if res.Forwards != 0 {
			t.Errorf("PSR forwarded %d messages", res.Forwards)
		}
		checkMeshTapes(t, cfg, res, served)
	}
}

// TestMeshWaitingConformance checks the waiting-time side of the mesh
// leg: a PSR mesh loaded through a single origin member, so exactly one
// member carries a meaningful utilization on this shared machine. Tier-1
// holds the counts and the tape; the live half compares that member's
// Lindley-on-tape mean wait with the M/G/1 mean at its own λ̂ and E[B^k],
// the single-broker leg's envelope.
func TestMeshWaitingConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the 32 000-filter scans ~10x, stretching the paced phase to minutes")
	}
	cfg := MeshConfig{
		Kind:         cluster.TopologyPSR,
		Members:      3,
		M:            2,
		NFltrPerSub:  meshNFltrPerSub,
		R:            2,
		LoadRho:      0.45,
		Messages:     2000,
		Warmup:       200,
		SingleOrigin: true,
		Seed:         4,
	}
	res, err := RunMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 1 {
		t.Fatalf("single-origin PSR loaded %d members, want 1", len(res.Members))
	}
	m := res.Members[0]
	t.Logf("E[B]=%.1fus lambda=%.0f/s rho=%.3f gap=%.1fus; mean wait recorded %.1fus lindley %.1fus predicted %.1fus",
		m.MeanService*1e6, m.Lambda, m.Rho, m.Gap*1e6,
		m.Recorded.MeanWait*1e6, m.Lindley.MeanWait*1e6, m.Predicted.MeanWait*1e6)
	checkMeshTapes(t, cfg, res, cfg.Messages)
	if res.Forwards != 0 {
		t.Errorf("PSR forwarded %d messages", res.Forwards)
	}

	// Live envelope. make conformance-live, 2-core host, 2026-10-15: 5/5.
	envelope(t, agree("mesh mean wait", m.Lindley.MeanWait, m.Predicted.MeanWait, 0.70, 100e-6))
}
