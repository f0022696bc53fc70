package jmsperf_test

import (
	"context"
	"fmt"
	"math"
	"os/exec"
	"strings"
	"testing"
	"time"

	jmsperf "repro"
)

func TestFacadePublishSubscribe(t *testing.T) {
	b := jmsperf.NewBroker(jmsperf.BrokerOptions{})
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	f, err := jmsperf.NewSelectorFilter("k = 1")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("t", f)
	if err != nil {
		t.Fatal(err)
	}
	m := jmsperf.NewMessage("t")
	if err := m.SetInt32Property("k", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Publish(ctx, m); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Receive(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAnalysisPipeline(t *testing.T) {
	// The full analysis pipeline through the public surface: replication
	// model -> service moments -> queue -> waiting-time quantile.
	model := jmsperf.TableICorrelationID
	r, err := jmsperf.NewBinomialR(40, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	moments, err := jmsperf.ServiceMomentsFor(model, 45, r)
	if err != nil {
		t.Fatal(err)
	}
	q, err := jmsperf.QueueAtUtilization(0.9, moments)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := q.GammaApprox()
	if err != nil {
		t.Fatal(err)
	}
	q9999, err := dist.Quantile(0.9999)
	if err != nil {
		t.Fatal(err)
	}
	if q9999 <= q.MeanWait() {
		t.Errorf("Q9999 %g <= E[W] %g", q9999, q.MeanWait())
	}
	// NewQueue agrees with QueueAtUtilization.
	q2, err := jmsperf.NewQueue(0.9/moments.M1, moments)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q2.MeanWait()-q.MeanWait()) > 1e-12 {
		t.Error("NewQueue and QueueAtUtilization disagree")
	}
}

func TestFacadeCorrelationFilter(t *testing.T) {
	f, err := jmsperf.NewCorrelationIDFilter("[1;3]")
	if err != nil {
		t.Fatal(err)
	}
	m := jmsperf.NewMessage("t")
	if err := m.SetCorrelationID("2"); err != nil {
		t.Fatal(err)
	}
	if !f.Matches(m) {
		t.Error("range filter should match")
	}
}

func TestFacadeDeterministicR(t *testing.T) {
	r, err := jmsperf.NewDeterministicR(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean() != 5 {
		t.Errorf("Mean = %g", r.Mean())
	}
	sb, err := jmsperf.NewScaledBernoulliR(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Mean() != 5 {
		t.Errorf("scaled Bernoulli mean = %g", sb.Mean())
	}
}

// ExampleCostModel_Capacity demonstrates the paper's headline use: predict
// the maximum message throughput for a planned application scenario.
func ExampleCostModel_Capacity() {
	model := jmsperf.TableICorrelationID
	capacity, _ := model.Capacity(0.9, 100 /* filters */, 1 /* E[R] */)
	fmt.Printf("%.0f msgs/s\n", capacity)
	// Output: 1250 msgs/s
}

// ExampleCostModel_FilterBenefit evaluates Eq. 3: a single correlation-ID
// filter pays off only below a 58.7% match probability.
func ExampleCostModel_FilterBenefit() {
	model := jmsperf.TableICorrelationID
	fmt.Println(model.FilterBenefit(1, 0.5))
	fmt.Println(model.FilterBenefit(1, 0.7))
	// Output:
	// true
	// false
}

// ExampleQueueAtUtilization computes the paper's "quasi upper bound" on
// the message waiting time at 90% server utilization.
func ExampleQueueAtUtilization() {
	moments := jmsperf.ServiceMoments{M1: 0.02, M2: 0.02 * 0.02, M3: 0.02 * 0.02 * 0.02}
	q, _ := jmsperf.QueueAtUtilization(0.9, moments)
	dist, _ := q.GammaApprox()
	q9999, _ := dist.Quantile(0.9999)
	fmt.Printf("Q99.99 = %.1f * E[B]\n", q9999/moments.M1)
	// Output: Q99.99 = 43.4 * E[B]
}

// TestImportGraph keeps the deleted multi-broker forms from growing back:
// distrib is closed forms only (a deployment type would pull the broker
// in), and cluster members talk through broker calls or wire.PeerLink,
// never through a reconnecting client as the bridges did. The conformance
// gate judges the broker by its own tapes and must not depend on the
// experiment harness. The Eq. 1 fit takes one observation type and reads
// no probe itself.
func TestImportGraph(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	for pkg, forbidden := range map[string][]string{
		"repro/internal/distrib":     {"repro/internal/broker"},
		"repro/internal/cluster":     {"repro/internal/client"},
		"repro/internal/conformance": {"repro/internal/bench"},
		"repro/internal/fit":         {"repro/internal/wire", "repro/internal/trace", "repro/internal/broker"},
	} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			for _, f := range forbidden {
				if dep == f {
					t.Errorf("%s depends on %s", pkg, f)
				}
			}
		}
	}
}
