package conformance

// This file is the fourth conformance leg: a live multi-broker
// replication mesh, measured for the paper's distributed closed forms.
//
// The measured side is a real cluster.Topology — n in-process brokers
// wired as PSR (filters mirrored everywhere, each message matched once at
// its ingress member) or SSR (publishes flooded, each member matching
// only its local filters). All members share one machine, so the leg
// cannot read system capacity off wall-clock parallel throughput: n
// brokers saturating one CPU would measure the scheduler, not the
// architecture. Instead the leg drives a modest paced load and returns
// each member's tape. Eqs. 21–22 are statements about per-server service
// times, so a caller implies capacity from the members' E[B_i]:
//
//	PSR: capacity = n * rho / E[B]   (Eq. 21, per-member E[B] averaged)
//	SSR: capacity = rho / max_i E[B_i]  (Eq. 22, every member sees the
//	     full stream, so the slowest member bounds the system)

import (
	"context"
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// meshTopic is the single topic the mesh leg publishes on.
const meshTopic = "mesh"

// MeshConfig parameterizes one live replication-mesh leg.
type MeshConfig struct {
	// Kind is the replication architecture: cluster.TopologyPSR or
	// cluster.TopologySSR. (Hash partitioning has no Eq. 21/22 analogue
	// in the paper; its capacity model is covered by distrib.HashCapacity
	// unit tests and the topology metamorphic suite.)
	Kind cluster.TopologyKind
	// Members is the broker count — the paper's n. Default 3.
	Members int
	// M is the modeled subscriber count whose filters burden every PSR
	// member. Default 2.
	M int
	// NFltrPerSub is the per-subscriber filter count. Default 600.
	NFltrPerSub int
	// R is the number of matching subscribers per matching site — the
	// deterministic replication grade E[R]. Default 2.
	R int
	// LoadRho is the per-member utilization the load phase drives, from
	// a closed-loop probe's E[B]. The members share one machine, so the
	// combined dispatch load of all brokers plus the pacer must remain
	// schedulable or the measured service times degenerate into scheduler
	// noise. Default 0.15.
	LoadRho float64
	// Messages is the loaded-phase message count. Default 1200.
	Messages int
	// Warmup is the number of leading loaded-phase messages whose waits
	// are dropped, each member cutting its share off its own tape.
	// Default Messages/10.
	Warmup int
	// SingleOrigin funnels every publish through member 0 instead of
	// rotating origins. Under PSR this loads exactly one member while the
	// others contribute only their mirrored filter burden — the
	// configuration for waiting-time checks, which need one member at a
	// meaningful utilization without multiplying the machine-wide load by
	// n.
	SingleOrigin bool
	// Seed drives the Poisson schedule.
	Seed int64
}

func (c MeshConfig) withDefaults() MeshConfig {
	if c.Members <= 0 {
		c.Members = 3
	}
	if c.M <= 0 {
		c.M = 2
	}
	if c.NFltrPerSub <= 0 {
		c.NFltrPerSub = 600
	}
	if c.R <= 0 {
		c.R = 2
	}
	if c.LoadRho <= 0 {
		c.LoadRho = 0.15
	}
	if c.Messages <= 0 {
		c.Messages = 1200
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Messages / 10
	}
	return c
}

// MeshResult is the outcome of one live replication-mesh leg.
type MeshResult struct {
	// Members analyses, in member order, the loaded-phase tape of every
	// member that serviced messages (all of them, except PSR with
	// SingleOrigin where only member 0 receives): its E[B_i], λ̂_i and
	// waits past the member's share of Warmup. Quantiles are the 99th
	// percentile.
	Members []TapeReport
	// Forwards counts cross-member copies (SSR flood clones; 0 for PSR).
	Forwards uint64
}

// RunMesh runs one live replication-mesh leg: a closed-loop probe of the
// mesh sets the load, and every member's tape of the loaded phase is
// analysed against itself.
func RunMesh(cfg MeshConfig) (MeshResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Kind != cluster.TopologyPSR && cfg.Kind != cluster.TopologySSR {
		return MeshResult{}, fmt.Errorf("conformance: mesh leg supports psr and ssr, not %v", cfg.Kind)
	}

	topo, err := cluster.NewTopology(cluster.TopologyConfig{
		Kind:    cfg.Kind,
		Members: cfg.Members,
		Topics:  []string{meshTopic},
		Broker: broker.Options{
			InFlight: 256,
			// Small per-subscriber buffers: the legs install tens of
			// thousands of never-matching subscriptions per mesh, and the
			// few matching ones are drained promptly.
			SubscriberBuffer: 16,
		},
	})
	if err != nil {
		return MeshResult{}, err
	}
	defer func() { _ = topo.Close() }()
	brokers := topo.Brokers()

	// Filter populations, placed exactly as the architecture prescribes.
	// The non-matching filters never receive, so they are installed on
	// the member brokers directly and need no drain goroutines; only the
	// matching subscribers go through the topology layer.
	if err := installMeshFilters(cfg, topo, brokers); err != nil {
		return MeshResult{}, err
	}

	// Every accepted message is serviced exactly once under PSR (at its
	// ingress member) and once per member under SSR.
	perMessage := 1
	if cfg.Kind == cluster.TopologySSR {
		perMessage = cfg.Members
	}
	publish := func(ctx context.Context, i int) error {
		origin := i % cfg.Members
		if cfg.SingleOrigin {
			origin = 0
		}
		m := jms.NewMessage(meshTopic)
		if err := m.SetCorrelationID("#0"); err != nil {
			return err
		}
		return topo.Publish(ctx, origin, m)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, b := range brokers {
		b.TakeTape(meshTopic)
	}
	eb, err := probeService(brokers, meshTopic, perMessage, func(i int) error { return publish(ctx, i) })
	if err != nil {
		return MeshResult{}, err
	}
	lambda := cfg.LoadRho / eb
	if cfg.Kind == cluster.TopologyPSR && !cfg.SingleOrigin {
		lambda *= float64(cfg.Members)
	}
	if _, err := loadgen.Run(ctx, stats.NewRNG(cfg.Seed), lambda, cfg.Messages, func(ctx context.Context, i int, _ time.Time) error {
		return publish(ctx, i)
	}); err != nil {
		return MeshResult{}, fmt.Errorf("conformance: mesh publish: %w", err)
	}
	tapes, err := awaitTapes(brokers, meshTopic, cfg.Messages*perMessage)
	if err != nil {
		return MeshResult{}, err
	}

	res := MeshResult{Forwards: topo.Stats().Forwards}
	for _, tape := range tapes {
		if len(tape) == 0 {
			continue
		}
		rep, err := AnalyzeTape(tape, len(tape)*cfg.Warmup/cfg.Messages, 0.99)
		if err != nil {
			return MeshResult{}, err
		}
		res.Members = append(res.Members, rep)
	}
	if len(res.Members) == 0 {
		return MeshResult{}, fmt.Errorf("conformance: mesh measured no service times")
	}
	return res, nil
}

// installMeshFilters builds the architecture's filter placement: under
// PSR every member carries all M*NFltrPerSub non-matching filters plus R
// mirrored matching subscribers; under SSR each member carries one
// modeled subscriber's NFltrPerSub filters plus its own R matching
// subscribers (so each member delivers E[R] replicas of the flooded
// stream, as Eq. 22's service time assumes).
func installMeshFilters(cfg MeshConfig, topo *cluster.Topology, brokers []*broker.Broker) error {
	nonMatching := func(b *broker.Broker, count, offset int) error {
		for i := 0; i < count; i++ {
			f, err := filter.NewCorrelationID(fmt.Sprintf("#%d", offset+i+1))
			if err != nil {
				return err
			}
			if _, err := b.Subscribe(meshTopic, f); err != nil {
				return err
			}
		}
		return nil
	}
	matching := func(home int) error {
		f, err := filter.NewCorrelationID("#0")
		if err != nil {
			return err
		}
		sub, err := topo.Subscribe(meshTopic, f, home)
		if err != nil {
			return err
		}
		go func() {
			for range sub.Chan() {
			}
		}()
		return nil
	}
	switch cfg.Kind {
	case cluster.TopologyPSR:
		for _, b := range brokers {
			if err := nonMatching(b, cfg.M*cfg.NFltrPerSub, 0); err != nil {
				return err
			}
		}
		for i := 0; i < cfg.R; i++ {
			if err := matching(i); err != nil {
				return err
			}
		}
	case cluster.TopologySSR:
		for mi, b := range brokers {
			if err := nonMatching(b, cfg.NFltrPerSub, mi*cfg.NFltrPerSub); err != nil {
				return err
			}
			for i := 0; i < cfg.R; i++ {
				if err := matching(mi); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
