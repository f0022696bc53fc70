package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/jms"
	"repro/internal/trace"
	"repro/internal/wire"
)

// topicName is the one topic every workload publishes on. It is "t" because
// stress.Population.Churn, which the index-rebuild replay drives, hard-codes
// that name.
const topicName = "t"

// matchingBuffer is the client-side delivery queue of a matching
// subscription; deep enough that the subscriber connection's read loop never
// blocks on the consumer within the publish windows used here.
const matchingBuffer = 1 << 12

// workload is one fixed traffic mix. Everything the broker's cost depends on
// is pinned here; only the seed-derived names and schedule vary per run.
type workload struct {
	name, why string
	bodyBytes int
	// members is 1 for a single broker, 3 for the SSR wire mesh.
	members int
	// r is the replication grade: matching subscriptions per message.
	r int
	// subBuffer is broker.Options.SubscriberBuffer. The broker allocates
	// the whole delivery queue per subscription up front, so the regression
	// benchmark's 1<<15 is kept only where the population is a handful: on
	// the populated workloads it would turn heap_live_mb into gigabytes of
	// empty channel buffers instead of the subscription store.
	subBuffer int
	// rateLo and rateHi are the frozen offered rates (msgs/s) of the paced
	// phases: about 0.25x and 0.6x of the sustainable per-message publish
	// rate on the 2-core reference host, two digits. Parent and change see
	// the same offered load, so latency and cpu_user_us_per_msg are costs at
	// fixed work rather than throughput echoes.
	rateLo, rateHi float64
	// population derives the subscription population from the seed.
	population func(rng *rand.Rand, corrID string) (idle, matching []wire.FilterSpec)
	// corrID derives the published correlation ID from the seed.
	corrID func(rng *rand.Rand) string
}

func deviceID(rng *rand.Rand) string { return fmt.Sprintf("dev-%d", 5_000_000+rng.Intn(1_000_000)) }

func unfiltered(n int) []wire.FilterSpec {
	specs := make([]wire.FilterSpec, n)
	for i := range specs {
		specs[i] = wire.FilterSpec{Mode: wire.FilterNone}
	}
	return specs
}

var workloads = []workload{
	{
		name:      "wire_small",
		why:       "16 B body, one unfiltered subscriber: the per-message fixed cost of the wire path dominates; matching and replication do almost nothing",
		bodyBytes: 16, members: 1, r: 1, subBuffer: 1 << 15,
		rateLo: 12000, rateHi: 30000,
		corrID: deviceID,
		population: func(*rand.Rand, string) ([]wire.FilterSpec, []wire.FilterSpec) {
			return nil, unfiltered(1)
		},
	},
	{
		name:      "filter_scan",
		why:       "128 B body, 512 distinct non-indexable non-matching filters (256 ID ranges, 256 selectors) and one subscriber: n_fltr*t_fltr is the service time, the wire path a rounding error",
		bodyBytes: 128, members: 1, r: 1, subBuffer: 64,
		rateLo: 3000, rateHi: 7000,
		corrID: deviceID,
		population: func(rng *rand.Rand, _ string) ([]wire.FilterSpec, []wire.FilterSpec) {
			// The paper's two filter types. Ranges end below 256 000 and
			// device IDs start at 5 000 000; the message's region is "eu"
			// and carries no zone property — so none of the 512 can match
			// whatever the seed, and all of them evaluate.
			idle := make([]wire.FilterSpec, 0, 512)
			for i := 0; i < 256; i++ {
				lo := i*1000 + rng.Intn(500)
				idle = append(idle, wire.FilterSpec{
					Mode: wire.FilterCorrelationID,
					Expr: fmt.Sprintf("dev-[%d;%d]", lo, lo+1+rng.Intn(499)),
				})
			}
			for i := 0; i < 256; i++ {
				expr := fmt.Sprintf("region = 'z%d-%d'", i, rng.Intn(1000))
				if i%2 == 1 {
					expr = fmt.Sprintf("region <> 'eu' AND zone = %d", i*1000+rng.Intn(1000))
				}
				idle = append(idle, wire.FilterSpec{Mode: wire.FilterSelector, Expr: expr})
			}
			return idle, unfiltered(1)
		},
	},
	{
		name:      "fanout_large",
		why:       "4 KiB body, R = 32 subscriptions on one exact literal among 10 000 hash-indexed non-matching ones: E[R]*t_tx and bytes dominate (replicate, delivery encode, egress writev)",
		bodyBytes: 4096, members: 1, r: 32, subBuffer: 64,
		rateLo: 150, rateHi: 400,
		corrID: func(rng *rand.Rand) string { return fmt.Sprintf("hot-%08x", rng.Uint32()) },
		population: func(rng *rand.Rand, corrID string) ([]wire.FilterSpec, []wire.FilterSpec) {
			tag := rng.Uint32()
			idle := make([]wire.FilterSpec, 10_000)
			for i := range idle {
				idle[i] = wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: fmt.Sprintf("lit-%08x-%d", tag, i)}
			}
			matching := make([]wire.FilterSpec, 32)
			for i := range matching {
				matching[i] = wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: corrID}
			}
			return idle, matching
		},
	},
	{
		name:      "mesh_ssr",
		why:       "the wire_small message through a 3-member SSR wire mesh, one subscriber per member: the cluster forward is the service time; the other three workloads never touch it",
		bodyBytes: 16, members: 3, r: 3, subBuffer: 1 << 15,
		rateLo: 1000, rateHi: 2400,
		corrID: deviceID,
		population: func(*rand.Rand, string) ([]wire.FilterSpec, []wire.FilterSpec) {
			return nil, unfiltered(3)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// inputs is everything generated from the seed before the program sees a
// byte: the same seed gives the same population, message and schedule.
type inputs struct {
	corrID         string
	body           []byte
	idle, matching []wire.FilterSpec
	schedule       *rand.Rand // Poisson inter-arrival draws for the paced phases
}

func makeInputs(w *workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{corrID: w.corrID(rng)}
	in.idle, in.matching = w.population(rng, in.corrID)
	in.body = make([]byte, w.bodyBytes)
	rng.Read(in.body)
	in.schedule = rand.New(rand.NewSource(rng.Int63()))
	return in
}

// newMessage builds one publishable message of the workload's shape: it
// always carries a correlation ID and a region property, so every installed
// filter really evaluates.
func (in inputs) newMessage() *jms.Message {
	m := jms.NewMessage(topicName)
	m.Header.CorrelationID = in.corrID
	if err := m.SetStringProperty("region", "eu"); err != nil {
		panic(err) // a constant, valid name
	}
	m.Body = append([]byte(nil), in.body...)
	return m
}

// brokerOptions are BenchmarkRegressionEndToEnd's, but for the per-workload
// subscriber buffer (see workload.subBuffer).
func brokerOptions(w *workload, rec *trace.Recorder) broker.Options {
	return broker.Options{
		Engine: broker.EngineFast, InFlight: 1024, Shards: 4,
		SubscriberBuffer: w.subBuffer, Tracer: rec,
	}
}

// stack is a booted system under test: brokers behind wire servers on TCP
// loopback, one publisher connection, and the subscriber connections with
// every subscription confirmed.
type stack struct {
	closed  sync.Once
	lns     []net.Listener
	brokers []*broker.Broker
	servers []*wire.Server
	meshes  []*cluster.WireMesh
	pub     *client.Client
	subCls  []*client.Client
	// matching[i] expects every published message; idle expect none.
	matching, idle []*client.Subscription
}

// setUp boots the workload: listeners, brokers, (mesh,) dials, topic and the
// whole population, each subscription confirmed by its SUBSCRIBE_OK. This is
// what setup_s times. A non-nil rec attaches the flight recorder through the
// public broker and wire options.
func setUp(w *workload, in inputs, rec *trace.Recorder) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	addrs := make([]string, w.members)
	for i := range addrs {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, fmt.Errorf("listen: %w", lerr)
		}
		st.lns = append(st.lns, ln)
		addrs[i] = ln.Addr().String()
	}
	for i, ln := range st.lns {
		br := broker.New(brokerOptions(w, rec))
		st.brokers = append(st.brokers, br)
		opts := wire.ServeOptions{Tracer: rec}
		if w.members > 1 {
			mesh, merr := cluster.NewWireMesh(cluster.WireMeshConfig{Kind: cluster.TopologySSR, Self: i, Addrs: addrs})
			if merr != nil {
				return nil, fmt.Errorf("mesh member %d: %w", i, merr)
			}
			st.meshes = append(st.meshes, mesh)
			opts.Forwarder = mesh
		}
		st.servers = append(st.servers, wire.ServeWith(br, ln, opts))
	}

	// One subscriber connection carries the whole population; the mesh
	// necessarily has one per member.
	for i := 0; i < w.members; i++ {
		c, derr := client.Dial(addrs[i])
		if derr != nil {
			return nil, derr
		}
		st.subCls = append(st.subCls, c)
		if err = c.ConfigureTopic(ctx, topicName); err != nil {
			return nil, fmt.Errorf("configure topic: %w", err)
		}
	}
	for _, spec := range in.idle {
		sub, serr := st.subCls[0].Subscribe(ctx, topicName, spec, 1)
		if serr != nil {
			return nil, fmt.Errorf("subscribe %q: %w", spec.Expr, serr)
		}
		st.idle = append(st.idle, sub)
	}
	for i, spec := range in.matching {
		sub, serr := st.subCls[i%w.members].Subscribe(ctx, topicName, spec, matchingBuffer)
		if serr != nil {
			return nil, fmt.Errorf("subscribe %q: %w", spec.Expr, serr)
		}
		st.matching = append(st.matching, sub)
	}
	if st.pub, err = client.Dial(addrs[0]); err != nil {
		return nil, err
	}
	return st, nil
}

// close tears the stack down and waits for it: clients first, so servers see
// clean disconnects, then meshes, servers and brokers. Later calls do nothing.
func (st *stack) close() { st.closed.Do(st.tearDown) }

func (st *stack) tearDown() {
	if st.pub != nil {
		_ = st.pub.Close()
	}
	for _, c := range st.subCls {
		_ = c.Close()
	}
	for _, m := range st.meshes {
		_ = m.Close()
	}
	for _, s := range st.servers {
		_ = s.Close()
	}
	for _, b := range st.brokers {
		_ = b.Close()
	}
	// Served listeners are closed already; this catches a set-up that
	// failed between Listen and ServeWith.
	for _, ln := range st.lns {
		_ = ln.Close()
	}
}
