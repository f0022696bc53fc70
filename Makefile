GO ?= go

.PHONY: all build vet-live test test-procs test-queues test-jmsdebug test-benchmark race conformance-live bench bench-all bench-pairs fuzz stress stress-smoke verify

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-procs is CI's matrix run locally: tier-1, the race pass and the
# repeated queue tests at GOMAXPROCS 1, 2 and 4, because a failure that
# needs two cores (two dispatch workers of one topic racing, a wall-clock
# envelope) is invisible on one.
test-procs:
	for p in 1 2 4; do GOMAXPROCS=$$p $(MAKE) test race test-queues || exit 1; done

# test-queues runs the subscriber queue's count-based tests twenty times:
# the outbox, the slow-consumer policies, durable backlogs across detach
# cycles, the metamorphic walls, unsubscribe and churn races, and the
# pinned workers' per-worker tapes and per-publisher FIFO, a batch's tape
# as one server's path, and the commit side's reads of a message before its
# receiver owns it. It does the same for a connection's egress: the
# writer's swap under concurrent producers, the bound, the dead-connection
# path, the served connection's writer taking its outbox (two goroutines
# a connection; nothing taken after a failed write, so teardown returns
# the rest to the durable backlog, and the outbox closed with it, so no
# transmit waits on the dead connection; a durable refill inside its own
# take taken too; SUBSCRIBE's replies never waiting at the bound holding
# the lock the writer swaps under: the TestEgress{ServedConnTwoGoroutines,
# TeardownRequeuesUntaken,DeadWriterReleasesTransmit,TakesDurableRefill,
# SubscribeReplyNeverWaits} tests) and the peer link,
# and at the client's end a cancelled publish waiting out the write of its by-reference body,
# delivery acks that never wait at the bound, and coalesced publishes
# joining the open MSG_BATCH frame until another frame or a swap closes it. And for recycled ingress
# storage: the carrier holds a slab's reuse waits on, the escapes that keep
# a retained message's slab from reuse, and a by-reference body held by a
# blocked writer, in the slab or, over 2 KiB, in pooled body storage. An ordering or counting race in the one delivery queue,
# between a topic's workers, in the egress double buffer or in a release
# shows as a failure in some run.
test-queues:
	$(GO) test -count=20 -run 'Outbox|SlowConsumer|Durable|Metamorphic|Unsubscribe|Churn|PinnedWorkers|BatchedTape|HandOff' ./internal/broker/
	$(GO) test -count=20 -run 'Egress|Pump|PeerLink' ./internal/wire/
	$(GO) test -count=20 -run 'Egress|Ack|Coalesc' ./internal/client/
	$(GO) test -count=20 -run 'Recycle|Release' ./internal/wire/ ./internal/broker/

# test-jmsdebug runs the packages a wire publish's storage crosses under the
# jmsdebug build tag, which poisons a slab when its last reference is
# dropped (by the connection writer, after its frame's encode or writev) and
# gives every publish slabs of its own, and poisons released
# body storage (a body over 2 KiB, which has storage of its own anyway): a
# message read after its storage was released shows as corrupted content.
test-jmsdebug:
	$(GO) test -tags jmsdebug ./internal/wire/ ./internal/broker/ ./internal/cluster/ ./internal/client/

# test-benchmark tests the repository benchmark (BENCHMARK.json): a nested
# module, so `go test ./...` above does not reach it. It checks the
# declarations against BENCHMARK.json and smokes all four workloads.
test-benchmark:
	$(GO) test -C benchmark ./...

# race runs the data-race detector over the packages with real concurrency:
# the broker's dispatch engines (the fast engine's several workers included), the lock-free
# topic snapshots, the copy-on-write message views, the wire layer's egress
# double buffer at both ends of a connection (the client's requests,
# publishes and delivery acks go through it too), its recycled ingress slabs
# and body storage (released by the connection writer, which also takes the
# outbox's deliveries, while the read loop carves the next), the reliability stack (fault injection, reconnecting clients,
# the replication meshes under restart and kill, conformance harness), and
# the telemetry plane scraped while the broker dispatches, and the load
# generator's lanes. internal/bench's load loop (publishers, drains, the
# window and the drain ledger) runs its count-based tests under -short, in
# process around one broker and over a loopback wire server, the loop
# cmd/jmsload drives; its wall-clock measurements skip there.
race:
	$(GO) test -race ./internal/jms/... ./internal/topic/... ./internal/broker/... ./internal/wire/... ./internal/client/... ./internal/faultnet/... ./internal/cluster/... ./internal/conformance/... ./internal/metrics/... ./internal/telemetry/... ./internal/trace/... ./internal/stress/... ./internal/loadgen/... ./cmd/jmsd/...
	$(GO) test -race -short ./internal/bench/...

# conformance-live asserts the wall-clock envelopes that tier-1 only logs:
# each compares a measurement on this machine with a model or a band (the
# broker and mesh waiting legs against their tapes' own M/G/1 prediction,
# the mesh capacities and Eq. 23 crossover, the native Eq. 1 fit, X1 and
# X3-X5, the 10^5 churn storm's 20 ms index rebuild). Five runs give the
# pass count recorded beside each test; tier-1 keeps their count-based
# halves and replays the checked-in tapes.
# -record-tapes (on TestBrokerConformance) rewrites those tapes.
conformance-live:
	$(GO) test -tags live -count=5 ./internal/conformance/ ./internal/bench/ ./internal/stress/

# bench runs the regression benchmark set (publish, dispatch, batch
# codec, end-to-end wire loop, mesh, subscription store) once and prints
# it; nothing compares or records the numbers. The hard ceilings are
# tier-1 tests beside the code they pin: batch decode <= 3 allocations and
# 64 delivery decodes <= 16 (TestArenaAllocationBudget), batch encode <= 2
# and delivery-frame encode 0 (TestAppendBatchAllocs,
# TestAppendDeliveryAllocs), one serial publish through the 3-member mesh
# <= 15 and a windowed mesh message <= 5 (TestWireMeshPublishAllocs,
# TestWireMeshWindowedAllocs), and <= 1 KiB of live heap per subscription
# (TestBytesPerSubscription). Timing comparisons are bench-pairs' job.
bench:
	$(GO) test -run xxx -bench BenchmarkRegression -benchmem .

# bench-all runs every benchmark (figure regenerations + ablations) once.
bench-all:
	$(GO) test -run xxx -bench . -benchtime 300ms .

# bench-pairs is how a performance claim is measured: N alternating runs of
# one BENCHMARK.json workload on BASE (a commit-ish, exported beside the
# checkout) and on this checkout, then `benchmark -compare` medians, each
# side's quartiles and the pair win count. ~1 minute per pair at the default
# run length. Example: make bench-pairs BASE=HEAD~1 WORKLOAD=fanout_large N=10
N ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(N)

# fuzz smokes the parsing surfaces fed by the network: the frame codec,
# the batch frame splitter, the lazy message-view decoder (held
# differentially to DecodeMessage), the subscriber's into-slab fan-out decode
# (held to DecodeFanout), the mesh FORWARD frame decoder, the
# JMS selector grammar, correlation-ID filter expressions against any ID
# (range rules held to an independent reference), and the live filter index
# held to a linear scan. Seed corpora live under testdata/fuzz.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMessageView -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFanout -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeForward -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/selector/
	$(GO) test -run='^$$' -fuzz=FuzzCorrelationIDMatch -fuzztime=10s ./internal/filter/
	$(GO) test -run='^$$' -fuzz=FuzzInternMatch -fuzztime=10s ./internal/topic/

# stress runs the full churn/soak wall: 10^5 churn storms plus the 10^6
# subscription soak (JMS_STRESS=1), with memory and rebuild-latency
# ceilings enforced. Needs ~1 GiB of heap; takes tens of seconds.
stress:
	JMS_STRESS=1 $(GO) test -v -timeout 20m ./internal/stress/

# stress-smoke is the CI-budget slice of the wall: short populations, no
# 10^6 soak, same ceilings.
stress-smoke:
	$(GO) test -short ./internal/stress/

# vet-live vets the //go:build live files, which neither tier-1 nor a plain
# go vet ./... compiles.
vet-live:
	$(GO) vet -tags live ./internal/conformance/ ./internal/bench/ ./internal/stress/

# verify is the tier-1 gate plus the live files' vet, the benchmark module's
# tests, the race pass and the poisoned-slab pass.
verify: build vet-live test test-benchmark race test-jmsdebug
