// Package jmsperf reproduces "Analysis of the Message Waiting Time for the
// FioranoMQ JMS Server" (Menth & Henjes, ICDCS 2006) as a Go library.
//
// It bundles three layers behind one import:
//
//   - A JMS-style publish/subscribe broker (topics, correlation-ID filters
//     with wildcard ranges, JMS-selector property filters, persistent
//     non-durable delivery with publisher push-back), embeddable in-process
//     or served over TCP.
//   - The paper's performance model: the message processing time
//     E[B] = t_rcv + n_fltr*t_fltr + E[R]*t_tx (Eq. 1) with the Table I
//     constants, server capacity (Eq. 2), the filter-benefit rule (Eq. 3),
//     and the M/GI/1-∞ waiting-time analysis with its Gamma approximation
//     and quantiles (Eqs. 4–20).
//   - The distributed architectures PSR and SSR (Eqs. 21–23) and the
//     experiment harness regenerating every figure and table of the paper.
//
// The deeper APIs live in the internal packages; this package re-exports
// the surface a downstream user needs.
package jmsperf

import (
	"repro/internal/bench"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/mg1"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Message model.
type (
	// Message is a JMS message: header, typed properties, payload.
	Message = jms.Message
	// DeliveryMode selects persistent or non-persistent delivery.
	DeliveryMode = jms.DeliveryMode
)

// Delivery modes.
const (
	Persistent    = jms.Persistent
	NonPersistent = jms.NonPersistent
)

// NewMessage returns an empty persistent message for a topic.
func NewMessage(topic string) *Message { return jms.NewMessage(topic) }

// Broker layer.
type (
	// Broker is an embeddable JMS-style pub/sub server.
	Broker = broker.Broker
	// BrokerOptions configure a broker.
	BrokerOptions = broker.Options
	// Subscriber is a subscription handle with its delivery queue.
	Subscriber = broker.Subscriber
	// Filter decides whether a message is forwarded to its subscriber.
	Filter = filter.Filter
)

// NewBroker creates a broker.
func NewBroker(opts BrokerOptions) *Broker { return broker.New(opts) }

// DurableOptions configure a durable subscription (the JMS durable mode
// the paper contrasts with its non-durable measurements).
type DurableOptions = broker.DurableOptions

// NewCorrelationIDFilter compiles a correlation-ID filter expression
// (exact match, "[lo;hi]" ranges, '*'/'?' globs).
func NewCorrelationIDFilter(expr string) (Filter, error) {
	return filter.NewCorrelationID(expr)
}

// NewSelectorFilter parses a JMS message selector (SQL92 subset) into a
// property filter.
func NewSelectorFilter(selector string) (Filter, error) {
	return filter.NewProperty(selector)
}

// Performance model (the paper's primary contribution).
type (
	// CostModel holds t_rcv, t_fltr, t_tx (Eq. 1 / Table I).
	CostModel = core.CostModel
	// FilterType selects correlation-ID or application-property filtering.
	FilterType = core.FilterType
)

// Filter types and their Table I constants.
const (
	CorrelationIDFiltering       = core.CorrelationIDFiltering
	ApplicationPropertyFiltering = core.ApplicationPropertyFiltering
)

// Paper constants (Table I).
var (
	TableICorrelationID       = core.TableICorrelationID
	TableIApplicationProperty = core.TableIApplicationProperty
)

// Waiting-time analysis.
type (
	// ServiceMoments are the first three raw moments of the service time.
	ServiceMoments = mg1.ServiceMoments
	// Queue is an M/GI/1-∞ queue.
	Queue = mg1.Queue
	// WaitDist is the Gamma-approximated waiting-time distribution.
	WaitDist = mg1.WaitDist
	// ReplicationDistribution models the message replication grade R.
	ReplicationDistribution = replication.Distribution
)

// NewQueue builds a stable M/GI/1-∞ queue.
func NewQueue(lambda float64, b ServiceMoments) (Queue, error) {
	return mg1.NewQueue(lambda, b)
}

// QueueAtUtilization builds the queue at a target utilization.
func QueueAtUtilization(rho float64, b ServiceMoments) (Queue, error) {
	return mg1.QueueAtUtilization(rho, b)
}

// ServiceMomentsFor evaluates Eqs. 7–9 for B = D + R*t_tx.
func ServiceMomentsFor(model CostModel, nFltr int, r ReplicationDistribution) (ServiceMoments, error) {
	return mg1.MomentsFromReplication(model.ConstantPart(nFltr), model.TTx, r)
}

// Replication-grade models (Eqs. 11–18).
var (
	// NewDeterministicR is the constant replication grade.
	NewDeterministicR = replication.NewDeterministic
	// NewScaledBernoulliR is the all-or-nothing model.
	NewScaledBernoulliR = replication.NewScaledBernoulli
	// NewBinomialR is the independent-filters model.
	NewBinomialR = replication.NewBinomial
)

// Distributed architectures (Section IV-C).
type (
	// DistribScenario describes the symmetric PSR/SSR environment.
	DistribScenario = distrib.Scenario
	// Topology is a running in-process replication mesh (PSR, SSR or hash).
	Topology = cluster.Topology
	// TopologyConfig parameterizes NewTopology.
	TopologyConfig = cluster.TopologyConfig
)

// The replication architectures a Topology can run.
const (
	TopologyPSR  = cluster.TopologyPSR
	TopologySSR  = cluster.TopologySSR
	TopologyHash = cluster.TopologyHash
)

// Capacity formulas, the crossover rule and the mesh constructor.
var (
	PSRCapacity       = distrib.PSRCapacity
	SSRCapacity       = distrib.SSRCapacity
	PSROutperformsSSR = distrib.PSROutperformsSSR
	CrossoverN        = distrib.CrossoverN
	MeshCapacity      = distrib.MeshCapacity
	NewTopology       = cluster.NewTopology
)

// Experiment harness.
type (
	// Series is one plottable data series.
	Series = bench.Series
	// BrokerSimConfig parameterizes the calibrated virtual-time broker.
	BrokerSimConfig = sim.BrokerConfig
)

// Figure and table generators (calibrated mode).
var (
	Fig4     = bench.Fig4
	Fig5     = bench.Fig5
	Fig6     = bench.Fig6
	Eq3Table = bench.Eq3Table
	Fig8     = bench.Fig8
	Fig9     = bench.Fig9
	Fig10    = bench.Fig10
	Fig11    = bench.Fig11
	Fig12    = bench.Fig12
	Fig15    = bench.Fig15
)
