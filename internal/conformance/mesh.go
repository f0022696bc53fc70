package conformance

// This file is the fourth conformance leg: a live multi-broker
// replication mesh checked against the paper's distributed closed forms.
//
// The analytic side is Eqs. 21–23 (internal/distrib): PSRCapacity,
// SSRCapacity and the crossover rule. The measured side is a real
// cluster.Topology — n in-process brokers wired as PSR (filters mirrored
// everywhere, each message matched once at its ingress member) or SSR
// (publishes flooded, each member matching only its local filters).
//
// All members share one machine, so the leg cannot read system capacity
// off wall-clock parallel throughput: n brokers saturating one CPU would
// measure the scheduler, not the architecture. Instead the leg drives a
// modest paced load and *implies* capacity from each member's measured
// mean service time E[B_i] (the brokers' per-topic ServiceMoments
// telemetry, the same instrument Table I's stage times come from):
//
//	PSR: capacity = n * rho / E[B]   (Eq. 21, per-member E[B] averaged)
//	SSR: capacity = rho / max_i E[B_i]  (Eq. 22, every member sees the
//	     full stream, so the slowest member bounds the system)
//
// against the same formulas evaluated on a stage-time cost model
// calibrated once on a single broker (bench.MeasureScenario with
// StageTiming). The crossover check then compares implied PSR and SSR
// capacities in configurations chosen so Eq. 23 predicts opposite
// winners.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrib"
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
	// Rho is the utilization bound the capacity formulas are evaluated
	// at. Default 0.9.
	Rho float64
	// LoadRho is the per-member utilization the load phase actually
	// drives. It stays well below Rho: the members share one machine, so
	// the combined dispatch load of all brokers plus the pacer must
	// remain schedulable or the measured service times degenerate into
	// scheduler noise. Default 0.15.
	LoadRho float64
	// Messages is the loaded-phase message count. Default 1200.
	Messages int
	// Warmup drops the first loaded-phase wait observations. Default
	// Messages/10.
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
	// Model is the pre-calibrated stage-time cost model. Zero value →
	// calibrated here via CalibrateMeshModel(Calibration, ...). Legs that
	// share a model (capacity vs crossover) calibrate once and inject it.
	Model core.CostModel
	// Calibration configures the stage-time measurement when Model is
	// zero.
	Calibration bench.NativeConfig
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
	if c.Rho <= 0 {
		c.Rho = 0.9
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
	// Model is the stage-time cost model the predictions used.
	Model core.CostModel
	// Scenario is the distrib scenario built from the config and model.
	Scenario distrib.Scenario
	// PredictedCapacity is Eq. 21 (PSR) or Eq. 22 (SSR) on the model.
	PredictedCapacity float64
	// ImpliedCapacity is the same formula evaluated on the measured
	// per-member service times.
	ImpliedCapacity float64
	// MemberService holds the measured loaded-phase E[B_i] in seconds for
	// the members that serviced messages (all of them, except PSR with
	// SingleOrigin where only member 0 receives).
	MemberService []float64
	// MemberLambda holds the matching measured per-member arrival rates.
	MemberLambda []float64
	// Lambda is the achieved system arrival rate (messages per second of
	// schedule span).
	Lambda float64
	// ObservedWait is the baseline-subtracted pooled mean waiting time of
	// the loaded phase; BaselineWait is the zero-load dispatch floor that
	// was subtracted.
	ObservedWait, BaselineWait float64
	// PredictedWait is the M/G/1 mean wait at the measured per-member
	// rates (weighted across members by messages serviced).
	PredictedWait float64
	// Forwards counts cross-member copies (SSR flood clones; 0 for PSR).
	Forwards uint64
}

// CheckCapacity compares implied against predicted system capacity.
func (r MeshResult) CheckCapacity(relTol float64) error {
	return agree("mesh capacity", r.ImpliedCapacity, r.PredictedCapacity, relTol, 0)
}

// CalibrateMeshModel measures the broker's stage-time cost model on a
// single broker: cal is run with StageTiming forced on, nFltr installed
// filters and replication grade r, and the measured per-stage times
// become the CostModel both capacity formulas are evaluated with.
func CalibrateMeshModel(cal bench.NativeConfig, nFltr, r int) (core.CostModel, error) {
	cal.StageTiming = true
	res, err := bench.MeasureScenario(cal, nFltr, r)
	if err != nil {
		return core.CostModel{}, fmt.Errorf("conformance: mesh calibration: %w", err)
	}
	if res.Stages == nil {
		return core.CostModel{}, fmt.Errorf("conformance: mesh calibration returned no stage times")
	}
	return core.CostModel{TRcv: res.Stages.TRcv, TFltr: res.Stages.TFltr, TTx: res.Stages.TTx}, nil
}

// CalibrateMeshModelPaced builds the cost model from paced single-member
// reference runs instead of a saturated throughput run. The saturated
// bench keeps the dispatch loop hot back to back, which under-measures
// the per-filter cost a paced server pays (cold micro-architectural
// state on every wake-up); a mesh leg driven at a low utilization would
// then read systematically slower than the model. So the per-filter cost
// is fitted as the slope of mean service time over the given filter
// burdens, each measured on one live member under the same Poisson
// pacing the mesh legs use; the fitted intercept (receive plus
// replication, a percent-level term at these burdens) is split into
// TRcv and TTx by the saturated stage-time ratio. The linear fit also
// re-checks the model's core premise — service time linear in the
// installed filter count — across the whole burden range the legs span.
func CalibrateMeshModelPaced(cal bench.NativeConfig, burdens []int, r int, loadRho float64, messages int, seed int64) (core.CostModel, error) {
	if len(burdens) < 2 {
		return core.CostModel{}, fmt.Errorf("conformance: paced calibration needs >= 2 burdens")
	}
	if loadRho <= 0 || loadRho >= 1 {
		return core.CostModel{}, fmt.Errorf("conformance: paced calibration loadRho=%g", loadRho)
	}
	if messages <= 0 {
		messages = 500
	}
	sat, err := CalibrateMeshModel(cal, burdens[len(burdens)/2], r)
	if err != nil {
		return core.CostModel{}, err
	}
	satBase := sat.TRcv + float64(r)*sat.TTx

	var sx, sy, sxx, sxy float64
	for i, burden := range burdens {
		lambda := loadRho / (satBase + float64(burden)*sat.TFltr)
		eb, err := measurePacedServiceTime(burden, r, lambda, messages, seed+int64(i))
		if err != nil {
			return core.CostModel{}, err
		}
		x := float64(burden)
		sx += x
		sy += eb
		sxx += x * x
		sxy += x * eb
	}
	n := float64(len(burdens))
	den := n*sxx - sx*sx
	slope := (n*sxy - sx*sy) / den
	if slope <= 0 {
		return core.CostModel{}, fmt.Errorf("conformance: paced calibration fitted t_fltr=%g", slope)
	}
	intercept := (sy - slope*sx) / n
	if intercept <= 0 {
		// The intercept is a percent-level term at these burdens; when
		// measurement noise pushes the fit through zero, fall back to
		// the saturated fixed costs.
		intercept = satBase
	}
	return core.CostModel{
		TRcv:  intercept * sat.TRcv / satBase,
		TFltr: slope,
		TTx:   intercept * sat.TTx / satBase,
	}, nil
}

// measurePacedServiceTime measures the mean service time of one live
// member carrying the given filter burden under a paced Poisson load —
// a 1-member PSR topology driven exactly like the mesh legs.
func measurePacedServiceTime(burden, r int, lambda float64, messages int, seed int64) (float64, error) {
	topo, err := cluster.NewTopology(cluster.TopologyConfig{
		Kind:    cluster.TopologyPSR,
		Members: 1,
		Topics:  []string{meshTopic},
		Broker: broker.Options{
			InFlight:         256,
			SubscriberBuffer: 16,
		},
	})
	if err != nil {
		return 0, err
	}
	defer func() { _ = topo.Close() }()
	brokers := topo.Brokers()
	cfg := MeshConfig{Kind: cluster.TopologyPSR, M: 1, NFltrPerSub: burden, R: r}
	if err := installMeshFilters(cfg, topo, brokers); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	before := meshTelemetry(brokers)
	if _, err := publishMesh(ctx, topo, stats.NewRNG(seed), lambda, messages, false); err != nil {
		return 0, err
	}
	if err := settleMesh(brokers); err != nil {
		return 0, err
	}
	d := meshTelemetry(brokers)[0].Sub(before[0])
	if d.ServiceMoments.N == 0 {
		return 0, fmt.Errorf("conformance: paced reference measured no service times")
	}
	return d.ServiceMoments.Mean(), nil
}

// RunMesh runs one live replication-mesh conformance leg.
func RunMesh(cfg MeshConfig) (MeshResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Kind != cluster.TopologyPSR && cfg.Kind != cluster.TopologySSR {
		return MeshResult{}, fmt.Errorf("conformance: mesh leg supports psr and ssr, not %v", cfg.Kind)
	}

	// Per-member filter burden: all m subscribers' filters under PSR, one
	// modeled subscriber's under SSR.
	filtersPerMember := cfg.M * cfg.NFltrPerSub
	if cfg.Kind == cluster.TopologySSR {
		filtersPerMember = cfg.NFltrPerSub
	}

	model := cfg.Model
	if model == (core.CostModel{}) {
		// Calibrate at this leg's own filter burden: the measured
		// per-filter cost drifts with the subscriber list's cache
		// footprint, so a model calibrated at a very different burden
		// systematically mispredicts E[B] (the same reason the
		// single-broker leg calibrates at its own NFltr).
		var err error
		model, err = CalibrateMeshModel(cfg.Calibration, filtersPerMember, cfg.R)
		if err != nil {
			return MeshResult{}, err
		}
	}
	scenario := distrib.Scenario{
		Model:       model,
		N:           cfg.Members,
		M:           cfg.M,
		NFltrPerSub: cfg.NFltrPerSub,
		MeanR:       float64(cfg.R),
		Rho:         cfg.Rho,
	}
	var (
		predicted float64
		err       error
	)
	if cfg.Kind == cluster.TopologyPSR {
		predicted, err = distrib.PSRCapacity(scenario)
	} else {
		predicted, err = distrib.SSRCapacity(scenario)
	}
	if err != nil {
		return MeshResult{}, err
	}

	// One pooled wait observer across members. The members are symmetric
	// by construction (identical filter burden, near-identical rates), so
	// the pooled stream estimates the common waiting-time distribution.
	var (
		waitMu sync.Mutex
		waits  []float64
	)
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
			WaitObserver: func(w time.Duration) {
				waitMu.Lock()
				waits = append(waits, w.Seconds())
				waitMu.Unlock()
			},
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

	// Per-member service rate the load is paced against.
	ebModel := model.TRcv + float64(filtersPerMember)*model.TFltr + float64(cfg.R)*model.TTx
	perMemberLambda := cfg.LoadRho / ebModel
	systemLambda := perMemberLambda
	if cfg.Kind == cluster.TopologyPSR && !cfg.SingleOrigin {
		systemLambda = perMemberLambda * float64(cfg.Members)
	}
	// Every accepted message is serviced exactly once under PSR (at its
	// ingress member) and once per member under SSR.
	waitsPerMessage := 1
	if cfg.Kind == cluster.TopologySSR {
		waitsPerMessage = cfg.Members
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rng := stats.NewRNG(cfg.Seed)

	phase := func(lambda float64, messages, warmup int) (meanWait float64, elapsed time.Duration, err error) {
		waitMu.Lock()
		before := len(waits)
		waitMu.Unlock()
		elapsed, err = publishMesh(ctx, topo, rng, lambda, messages, cfg.SingleOrigin)
		if err != nil {
			return 0, 0, err
		}
		expected := before + messages*waitsPerMessage
		deadline := time.Now().Add(30 * time.Second)
		for {
			waitMu.Lock()
			n := len(waits)
			waitMu.Unlock()
			if n >= expected {
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("conformance: mesh dispatched %d of %d messages", n-before, expected-before)
			}
			time.Sleep(5 * time.Millisecond)
		}
		s := stats.NewSummary()
		waitMu.Lock()
		for _, w := range waits[before+warmup*waitsPerMessage:] {
			s.Add(w)
		}
		waitMu.Unlock()
		meanWait, err = s.Mean()
		if err != nil {
			return 0, 0, err
		}
		return meanWait, elapsed, nil
	}

	// Zero-load baseline: the measured mean at a few percent utilization
	// is the dispatch-latency floor, subtracted from the loaded mean.
	baseMsgs := cfg.Messages / 4
	baseline, _, err := phase(systemLambda/5, baseMsgs, baseMsgs/10)
	if err != nil {
		return MeshResult{}, err
	}
	if err := settleMesh(brokers); err != nil {
		return MeshResult{}, err
	}

	beforeTel := meshTelemetry(brokers)
	loadedWait, elapsed, err := phase(systemLambda, cfg.Messages, cfg.Warmup)
	if err != nil {
		return MeshResult{}, err
	}
	if err := settleMesh(brokers); err != nil {
		return MeshResult{}, err
	}
	afterTel := meshTelemetry(brokers)

	// Per-member loaded-phase deltas: measured E[B_i] and arrival rates.
	var (
		ebs, lambdas []float64
		weights      []float64
	)
	for i := range brokers {
		d := afterTel[i].Sub(beforeTel[i])
		if d.ServiceMoments.N == 0 {
			continue
		}
		ebs = append(ebs, d.ServiceMoments.Mean())
		lambdas = append(lambdas, float64(d.Received)/elapsed.Seconds())
		weights = append(weights, float64(d.Received))
	}
	if len(ebs) == 0 {
		return MeshResult{}, fmt.Errorf("conformance: mesh measured no service times")
	}

	implied, err := implyMeshCapacity(cfg, ebs)
	if err != nil {
		return MeshResult{}, err
	}
	predWait, err := meshPredictedWait(cfg.Kind, scenario, lambdas, weights)
	if err != nil {
		return MeshResult{}, err
	}

	return MeshResult{
		Model:             model,
		Scenario:          scenario,
		PredictedCapacity: predicted,
		ImpliedCapacity:   implied,
		MemberService:     ebs,
		MemberLambda:      lambdas,
		Lambda:            float64(cfg.Messages) / elapsed.Seconds(),
		ObservedWait:      loadedWait - baseline,
		BaselineWait:      baseline,
		PredictedWait:     predWait,
		Forwards:          topo.Stats().Forwards,
	}, nil
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

// implyMeshCapacity evaluates the architecture's capacity formula on the
// measured per-member service times.
func implyMeshCapacity(cfg MeshConfig, ebs []float64) (float64, error) {
	switch cfg.Kind {
	case cluster.TopologyPSR:
		// Eq. 21 on measurements: n times the mean measured per-server
		// capacity. With SingleOrigin only member 0 is measured, but the
		// members carry identical mirrored filter loads, so its E[B]
		// stands in for all n.
		var perServer float64
		for _, eb := range ebs {
			if eb <= 0 {
				return 0, fmt.Errorf("conformance: mesh measured E[B]=%g", eb)
			}
			perServer += cfg.Rho / eb
		}
		perServer /= float64(len(ebs))
		return float64(cfg.Members) * perServer, nil
	default:
		// Eq. 22 on measurements: every member sees the full stream, so
		// the slowest member bounds the system.
		max := 0.0
		for _, eb := range ebs {
			max = math.Max(max, eb)
		}
		if max <= 0 {
			return 0, fmt.Errorf("conformance: mesh measured E[B]=%g", max)
		}
		return cfg.Rho / max, nil
	}
}

// meshPredictedWait pools the per-member M/G/1 mean waits at the
// measured per-member rates, weighted by messages serviced.
func meshPredictedWait(kind cluster.TopologyKind, s distrib.Scenario, lambdas, weights []float64) (float64, error) {
	var sum, total float64
	for i, lambda := range lambdas {
		if lambda <= 0 {
			continue
		}
		var (
			mean float64
			err  error
		)
		if kind == cluster.TopologyPSR {
			mean, _, err = distrib.PSRWaitingAtRate(s, lambda)
		} else {
			mean, _, err = distrib.SSRWaitingAtRate(s, lambda)
		}
		if err != nil {
			return 0, err
		}
		sum += weights[i] * mean
		total += weights[i]
	}
	if total == 0 {
		return 0, fmt.Errorf("conformance: mesh measured no arrivals")
	}
	return sum / total, nil
}

// meshTelemetry snapshots every member's telemetry for the mesh topic.
func meshTelemetry(brokers []*broker.Broker) []broker.TopicTelemetry {
	out := make([]broker.TopicTelemetry, len(brokers))
	for i, b := range brokers {
		out[i] = b.Telemetry()[meshTopic]
	}
	return out
}

// settleMesh waits until every member has serviced every message it
// accepted, so phase boundaries do not bleed queued work into the next
// window's telemetry delta.
func settleMesh(brokers []*broker.Broker) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		settled := true
		for _, b := range brokers {
			tel := b.Telemetry()[meshTopic]
			if tel.ServiceMoments.N < tel.Received {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conformance: mesh members did not settle")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// publishMesh offers a Poisson schedule to the topology, rotating the
// publisher origin across members (or pinning it to member 0 with
// singleOrigin), and returns the schedule's wall-clock span.
func publishMesh(ctx context.Context, topo *cluster.Topology, rng *stats.RNG, lambda float64, messages int, singleOrigin bool) (time.Duration, error) {
	members := len(topo.Brokers())
	res, err := loadgen.Run(ctx, rng, lambda, messages, func(ctx context.Context, i int, _ time.Time) error {
		origin := i % members
		if singleOrigin {
			origin = 0
		}
		m := jms.NewMessage(meshTopic)
		if err := m.SetCorrelationID("#0"); err != nil {
			return err
		}
		return topo.Publish(ctx, origin, m)
	})
	if err != nil {
		return 0, fmt.Errorf("conformance: mesh publish: %w", err)
	}
	return res.Elapsed, nil
}
