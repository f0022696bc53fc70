// Distributed architectures: pick between publisher-side (PSR) and
// subscriber-side (SSR) server replication with the paper's crossover rule
// (Eq. 23), then actually run the chosen architecture as an in-process mesh
// of real brokers.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	jmsperf "repro"
	"repro/internal/cluster"
	"repro/internal/filter"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The planning scenario: n publishers, m subscribers, 10 filters per
	// subscriber, E[R]=1, rho=0.9 — Fig. 15's setting.
	scenario := jmsperf.DistribScenario{
		Model:       jmsperf.TableICorrelationID,
		N:           50,
		M:           100,
		NFltrPerSub: 10,
		MeanR:       1,
		Rho:         0.9,
	}

	psrCap, err := jmsperf.PSRCapacity(scenario)
	if err != nil {
		return err
	}
	ssrCap, err := jmsperf.SSRCapacity(scenario)
	if err != nil {
		return err
	}
	crossover, err := jmsperf.CrossoverN(scenario)
	if err != nil {
		return err
	}
	psrWins, err := jmsperf.PSROutperformsSSR(scenario)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: n=%d publishers, m=%d subscribers, %d filters/subscriber, E[R]=%g\n",
		scenario.N, scenario.M, scenario.NFltrPerSub, scenario.MeanR)
	fmt.Printf("PSR system capacity: %8.0f msgs/s (Eq. 21)\n", psrCap)
	fmt.Printf("SSR system capacity: %8.0f msgs/s (Eq. 22)\n", ssrCap)
	fmt.Printf("crossover (Eq. 23):  PSR wins from n >= %d publishers\n", crossover)

	if psrWins {
		fmt.Println("\n-> deploying PSR (one broker per publisher)")
		return runPSR()
	}
	fmt.Println("\n-> deploying SSR (one broker per subscriber)")
	return runSSR()
}

// runPSR demonstrates a small publisher-side mesh: 3 publishers with
// local brokers; one subscriber's filter is mirrored on all of them.
func runPSR() error {
	topo, err := newMesh(jmsperf.TopologyPSR)
	if err != nil {
		return err
	}
	defer func() { _ = topo.Close() }()

	f, err := filter.NewCorrelationID("order-*")
	if err != nil {
		return err
	}
	sub, err := topo.Subscribe("events", f, 0)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for p := 0; p < 3; p++ {
		m := jmsperf.NewMessage("events")
		if err := m.SetCorrelationID(fmt.Sprintf("order-%d", p)); err != nil {
			return err
		}
		if err := topo.Publish(ctx, p, m); err != nil {
			return err
		}
		// Publisher p enters at broker p, whose mirror delivers.
		got, err := receive(ctx, sub)
		if err != nil {
			return err
		}
		fmt.Printf("  broker %d delivered %s\n", p, got.Header.CorrelationID)
	}
	received, dispatched := totals(topo)
	fmt.Printf("  PSR totals: received=%d dispatched=%d\n", received, dispatched)
	return nil
}

// runSSR demonstrates a small subscriber-side mesh: 3 subscribers, each
// homed on its own broker; every publish is flooded to all of them.
func runSSR() error {
	topo, err := newMesh(jmsperf.TopologySSR)
	if err != nil {
		return err
	}
	defer func() { _ = topo.Close() }()

	subs := make([]*cluster.TopoSub, 3)
	for i := range subs {
		f, err := filter.NewCorrelationID(fmt.Sprintf("shard-%d", i))
		if err != nil {
			return err
		}
		if subs[i], err = topo.Subscribe("events", f, i); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m := jmsperf.NewMessage("events")
	if err := m.SetCorrelationID("shard-1"); err != nil {
		return err
	}
	if err := topo.Publish(ctx, 0, m); err != nil {
		return err
	}
	got, err := receive(ctx, subs[1])
	if err != nil {
		return err
	}
	fmt.Printf("  subscriber 1 received %s\n", got.Header.CorrelationID)
	received, dispatched := totals(topo)
	fmt.Printf("  SSR totals: received=%d (multicast) dispatched=%d\n", received, dispatched)
	return nil
}

func newMesh(kind cluster.TopologyKind) (*jmsperf.Topology, error) {
	return jmsperf.NewTopology(jmsperf.TopologyConfig{Kind: kind, Members: 3, Topics: []string{"events"}})
}

// receive takes the next delivery off a mesh subscription.
func receive(ctx context.Context, s *cluster.TopoSub) (*jmsperf.Message, error) {
	select {
	case m := <-s.Chan():
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// totals sums the member brokers' counters.
func totals(topo *jmsperf.Topology) (received, dispatched uint64) {
	for _, b := range topo.Brokers() {
		st := b.Stats()
		received += st.Received
		dispatched += st.Dispatched
	}
	return received, dispatched
}
