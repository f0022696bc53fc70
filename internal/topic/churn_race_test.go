package topic

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/filter"
	"repro/internal/jms"
)

// TestChurnStormSnapshotIntegrity races a subscribe/unsubscribe storm
// against continuous Snapshot and Index readers and checks that no reader
// ever observes a torn view: no nil entries, no duplicate IDs, and a
// length that matches the snapshot's own claim. Run under -race this also
// proves the lock-free publication protocol.
func TestChurnStormSnapshotIntegrity(t *testing.T) {
	r := NewRegistry()
	tp, err := r.Configure("t")
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const readers = 4
	perWriter := 400
	if testing.Short() {
		perWriter = 100
	}

	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	errCh := make(chan string, writers+readers)

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			live := make([]*Subscription, 0, 64)
			for i := 0; i < perWriter; i++ {
				if len(live) == 0 || rng.Intn(2) == 0 {
					var f filter.Filter
					switch rng.Intn(5) {
					case 0:
						f = nil // All
					case 1, 2:
						// Exact literals, and ranges around the readers' lit-5
						// that come and go as whole rules.
						expr := "lit-" + strconv.Itoa(rng.Intn(32))
						if rng.Intn(2) == 0 {
							expr = "lit-[" + strconv.Itoa(rng.Intn(8)) + ";" + strconv.Itoa(8+rng.Intn(8)) + "]"
						}
						cf, err := filter.NewCorrelationID(expr)
						if err != nil {
							errCh <- err.Error()
							return
						}
						f = cf
					case 3:
						f = filter.MustProperty("prop = " + strconv.Itoa(rng.Intn(8)))
					default:
						f = filter.MustProperty("prop >= 0 AND zone = " + strconv.Itoa(rng.Intn(4)))
					}
					s, err := r.Subscribe("t", f, nil)
					if err != nil {
						errCh <- err.Error()
						return
					}
					live = append(live, s)
				} else {
					k := rng.Intn(len(live))
					s := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := r.Unsubscribe("t", s.ID); err != nil {
						errCh <- err.Error()
						return
					}
				}
			}
			for _, s := range live {
				if err := r.Unsubscribe("t", s.ID); err != nil {
					errCh <- err.Error()
					return
				}
			}
		}(int64(w + 1))
	}

	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(viaIndex bool) {
			defer readerWG.Done()
			m := jms.NewMessage("t")
			if err := m.SetCorrelationID("lit-5"); err != nil {
				errCh <- err.Error()
				return
			}
			if err := m.SetInt32Property("prop", 3); err != nil {
				errCh <- err.Error()
				return
			}
			if err := m.SetInt32Property("zone", 1); err != nil {
				errCh <- err.Error()
				return
			}
			var scratch []*Subscription
			for !stop.Load() {
				if viaIndex {
					idx, _ := tp.Index()
					scratch = scratch[:0]
					var seen map[SubscriptionID]bool
					scratch, _ = idx.Match(m, scratch)
					seen = make(map[SubscriptionID]bool, len(scratch))
					for _, s := range scratch {
						if s == nil {
							errCh <- "index match returned nil subscription"
							return
						}
						if seen[s.ID] {
							errCh <- "index match returned duplicate subscription " + strconv.FormatUint(uint64(s.ID), 10)
							return
						}
						seen[s.ID] = true
					}
				} else {
					subs, _ := tp.Snapshot()
					seen := make(map[SubscriptionID]bool, len(subs))
					for _, s := range subs {
						if s == nil {
							errCh <- "snapshot contains nil subscription"
							return
						}
						if seen[s.ID] {
							errCh <- "snapshot contains duplicate subscription"
							return
						}
						seen[s.ID] = true
					}
				}
			}
		}(g%2 == 0)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
	if n := r.TotalSubscriptions(); n != 0 {
		t.Errorf("TotalSubscriptions = %d, want 0", n)
	}
	if r.InternedRules() != 0 {
		t.Errorf("InternedRules = %d, want 0 after full churn", r.InternedRules())
	}
	// The final index over the empty table must match nothing.
	idx, _ := tp.Index()
	m := jms.NewMessage("t")
	subs, _ := idx.Match(m, nil)
	if len(subs) != 0 {
		t.Errorf("empty topic matched %d subscriptions", len(subs))
	}
}

// TestChurnPropertyIndexAgreesWithLinear interleaves random subscription
// ops with index rebuilds and, after every batch, checks the indexed match
// set against a linear scan of the same snapshot — the metamorphic
// relation the fuzz target explores with arbitrary inputs. A second
// goroutine keeps matching throughout, so whole range and pivot rules are
// built, stabbed and retired under a concurrent Match (make race).
func TestChurnPropertyIndexAgreesWithLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewRegistry()
	tp, err := r.Configure("t")
	if err != nil {
		t.Fatal(err)
	}
	var live []*Subscription
	rounds := 60
	if testing.Short() {
		rounds = 20
	}

	stop := make(chan struct{})
	matcherDone := make(chan string, 1)
	go func() {
		defer close(matcherDone)
		m := jms.NewMessage("t")
		m.Header.CorrelationID = "id4"
		if err := m.SetInt32Property("prop", 2); err != nil {
			matcherDone <- err.Error()
			return
		}
		var scratch []*Subscription
		seen := make(map[SubscriptionID]bool)
		for {
			select {
			case <-stop:
				return
			default:
			}
			idx, _ := tp.Index()
			scratch, _ = idx.Match(m, scratch[:0])
			clear(seen)
			for _, s := range scratch {
				if seen[s.ID] {
					matcherDone <- "concurrent match returned subscription " + strconv.FormatUint(uint64(s.ID), 10) + " twice"
					return
				}
				seen[s.ID] = true
			}
		}
	}()
	defer func() {
		close(stop)
		if msg, failed := <-matcherDone; failed {
			t.Error(msg)
		}
	}()

	for round := 0; round < rounds; round++ {
		for op := 0; op < 40; op++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				var f filter.Filter
				switch rng.Intn(8) {
				case 5:
					// Ranges in two affix families: nested, overlapping,
					// single-point.
					lo := rng.Intn(8)
					expr := "id[" + strconv.Itoa(lo) + ";" + strconv.Itoa(lo+rng.Intn(3)) + "]"
					if rng.Intn(2) == 0 {
						expr += "-x"
					}
					cf, err := filter.NewCorrelationID(expr)
					if err != nil {
						t.Fatal(err)
					}
					f = cf
				case 6:
					f = filter.MustProperty("prop >= 1 AND tag = 't" + strconv.Itoa(rng.Intn(3)) + "'")
				case 7:
					f = filter.MustProperty("prop <> " + strconv.Itoa(rng.Intn(4)))
				case 0:
					f = nil
				case 1:
					cf, err := filter.NewCorrelationID("#" + strconv.Itoa(rng.Intn(10)))
					if err != nil {
						t.Fatal(err)
					}
					f = cf
				case 2:
					cf, err := filter.NewCorrelationID("dev-*")
					if err != nil {
						t.Fatal(err)
					}
					f = cf
				case 3:
					cf, err := filter.NewCorrelationID("id[" + strconv.Itoa(rng.Intn(5)) + ";9]")
					if err != nil {
						t.Fatal(err)
					}
					f = cf
				default:
					f = filter.MustProperty("prop = " + strconv.Itoa(rng.Intn(4)))
				}
				s, err := r.Subscribe("t", f, nil)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, s)
			} else {
				k := rng.Intn(len(live))
				s := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := r.Unsubscribe("t", s.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		probes := []string{"#0", "#5", "#9", "dev-3", "id4", "id4-x", "id", "id-x", "zzz"}
		idx, iEpoch := tp.Index()
		subs, sEpoch := tp.Snapshot()
		if iEpoch != sEpoch {
			t.Fatalf("round %d: index epoch %d != snapshot epoch %d", round, iEpoch, sEpoch)
		}
		for _, lit := range probes {
			m := jms.NewMessage("t")
			if err := m.SetCorrelationID(lit); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := m.SetInt32Property("prop", int32(rng.Intn(4))); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				if err := m.SetStringProperty("tag", "t"+strconv.Itoa(rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
			want := make(map[SubscriptionID]bool)
			for _, s := range subs {
				if s.Filter.Matches(m) {
					want[s.ID] = true
				}
			}
			got := make(map[SubscriptionID]bool)
			matched, _ := idx.Match(m, nil)
			for _, s := range matched {
				if got[s.ID] {
					t.Fatalf("round %d probe %q: duplicate match %d", round, lit, s.ID)
				}
				got[s.ID] = true
			}
			if len(got) != len(want) {
				t.Fatalf("round %d probe %q: index matched %d, linear %d", round, lit, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("round %d probe %q: index missed %d", round, lit, id)
				}
			}
		}
	}
}
