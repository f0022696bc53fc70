package jms

import (
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// modelMessage pairs a message with the map its property section must
// behave like.
type modelMessage struct {
	m    *Message
	want map[string]Property
}

func (mm modelMessage) fork(m *Message) modelMessage {
	want := make(map[string]Property, len(mm.want))
	for k, v := range mm.want {
		want[k] = v
	}
	return modelMessage{m: m, want: want}
}

// check compares every read accessor of the section against the oracle.
// It reports through t.Errorf so reader goroutines may call it.
func (mm modelMessage) check(t *testing.T, when string) bool {
	names := make([]string, 0, len(mm.want))
	for name := range mm.want {
		names = append(names, name)
	}
	sort.Strings(names)
	got := mm.m.PropertyNames()
	if len(got) != len(names) || mm.m.NumProperties() != len(names) {
		t.Errorf("%s: PropertyNames = %v (NumProperties %d), want %v", when, got, mm.m.NumProperties(), names)
		return false
	}
	for i, name := range names {
		atName, atValue := mm.m.PropertyAt(i)
		p, ok := mm.m.Property(name)
		if got[i] != name || atName != name || !ok || p != mm.want[name] || atValue != mm.want[name] {
			t.Errorf("%s: entry %d = (%q, %+v), Property(%q) = (%+v, %v), want %+v",
				when, i, atName, atValue, name, p, ok, mm.want[name])
			return false
		}
	}
	if _, ok := mm.m.Property("absent"); ok {
		t.Errorf("%s: Property(absent) found", when)
		return false
	}
	return true
}

// TestPropertySectionModel drives seeded operation sequences — set,
// overwrite, clear, Shared then set on either side, Clone, reserved storage
// — against a map oracle. Every Shared also hands a frozen view to a reader
// goroutine that keeps comparing it with its snapshot while the sequence
// goes on mutating the original and its sibling views, so under -race a
// write that reaches a shared section is a reported race, not only a wrong
// value.
func TestPropertySectionModel(t *testing.T) {
	valid := []string{"a", "b", "c", "region", "qty", "_x", "$y", "Z9", "mid", "zeta"}
	invalid := []string{"", "1abc", "a-b", "a b", "a.b", "é"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := []modelMessage{{m: NewMessage("t"), want: map[string]Property{}}}
		var readers sync.WaitGroup
		for op := 0; op < 200 && !t.Failed(); op++ {
			mm := live[rng.Intn(len(live))]
			switch k := rng.Intn(10); {
			case k < 5: // set or overwrite
				name := valid[rng.Intn(len(valid))]
				var p Property
				var err error
				switch rng.Intn(5) {
				case 0:
					p = Property{Type: TypeBool, B: rng.Intn(2) == 0}
					err = mm.m.SetBoolProperty(name, p.B)
				case 1:
					p = Property{Type: TypeInt32, I: int64(int32(rng.Uint32()))}
					err = mm.m.SetInt32Property(name, int32(p.I))
				case 2:
					p = Property{Type: TypeInt64, I: rng.Int63()}
					err = mm.m.SetInt64Property(name, p.I)
				case 3:
					p = Property{Type: TypeFloat64, F: rng.Float64()}
					err = mm.m.SetFloat64Property(name, p.F)
				default:
					p = Property{Type: TypeString, S: valid[rng.Intn(len(valid))]}
					err = mm.m.SetStringProperty(name, p.S)
				}
				if err != nil {
					t.Fatalf("seed %d op %d: set %q: %v", seed, op, name, err)
				}
				mm.want[name] = p
			case k == 5: // an invalid name is rejected and changes nothing
				name := invalid[rng.Intn(len(invalid))]
				if err := mm.m.SetInt64Property(name, 1); !errors.Is(err, ErrBadPropertyName) {
					t.Fatalf("seed %d op %d: set %q = %v, want ErrBadPropertyName", seed, op, name, err)
				}
			case k == 6:
				if rng.Intn(2) == 0 {
					mm.m.ClearProperties()
				} else {
					mm.m.ReserveProperties(make([]PropertyEntry, 2))
				}
				for name := range mm.want {
					delete(mm.want, name)
				}
			case k == 7 && len(live) < 12:
				live = append(live, mm.fork(mm.m.Clone()))
			case len(live) < 12:
				live = append(live, mm.fork(mm.m.Shared()))
				frozen := mm.fork(mm.m.Shared())
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 50 && frozen.check(t, "frozen view"); i++ {
					}
				}()
			}
			for i, other := range live {
				if !other.check(t, "after op") {
					t.Fatalf("seed %d op %d: message %d diverged from the oracle", seed, op, i)
				}
			}
		}
		readers.Wait()
	}
}

// TestPropertyLargeSection: the section is searched by bisection, so it is
// also held to the oracle at a size no JMS message has — names set in
// shuffled order, overwritten, and every gap between them probed.
func TestPropertyLargeSection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mm := modelMessage{m: NewMessage("t"), want: map[string]Property{}}
	for round := int64(0); round < 2; round++ {
		for _, i := range rng.Perm(300) {
			name := "p" + strconv.Itoa(2*i)
			if err := mm.m.SetInt64Property(name, round+int64(i)); err != nil {
				t.Fatal(err)
			}
			mm.want[name] = Property{Type: TypeInt64, I: round + int64(i)}
		}
		mm.check(t, "300 names")
	}
	for i := 0; i < 300; i++ {
		if _, ok := mm.m.Property("p" + strconv.Itoa(2*i+1)); ok {
			t.Fatalf("found the absent name p%d", 2*i+1)
		}
	}
}

// TestPropertyReadsDoNotAllocate pins the read side of the slice-backed
// section: lookups, typed accessors and taking a Shared view to read from
// cost no allocation, so a filter evaluation never does.
func TestPropertyReadsDoNotAllocate(t *testing.T) {
	m := NewMessage("t")
	for _, name := range []string{"region", "qty", "user"} {
		if err := m.SetStringProperty(name, "eu"); err != nil {
			t.Fatal(err)
		}
	}
	var sink int
	cases := map[string]func(){
		"Property": func() {
			if p, ok := m.Property("region"); ok {
				sink += len(p.S)
			}
			if _, ok := m.Property("absent"); ok {
				sink++
			}
		},
		"StringProperty": func() {
			s, _ := m.StringProperty("user")
			sink += len(s)
		},
		"PropertyAt": func() {
			for i := 0; i < m.NumProperties(); i++ {
				name, _ := m.PropertyAt(i)
				sink += len(name)
			}
		},
		"Shared+read": func() {
			s, _ := m.Shared().StringProperty("qty")
			sink += len(s)
		},
	}
	for name, fn := range cases {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, got)
		}
	}
	_ = sink
}

// TestReservePropertiesFillsInPlace: a reserved section takes its entries
// without allocating, keeps them sorted, and grows normally past the
// reservation without touching what follows it in the caller's storage.
func TestReservePropertiesFillsInPlace(t *testing.T) {
	storage := make([]PropertyEntry, 4)
	m := NewMessage("t")
	m.ReserveProperties(storage[:0:2])
	allocs := testing.AllocsPerRun(1, func() {
		_ = m.SetInt64Property("b", 2)
		_ = m.SetInt64Property("a", 1)
		_ = m.SetInt64Property("b", 3) // overwrite: no third slot
	})
	if allocs != 0 {
		t.Errorf("filling a reserved section allocated %v times", allocs)
	}
	if storage[0].name != "a" || storage[1].name != "b" || storage[1].value.I != 3 {
		t.Errorf("reserved storage holds %+v, want a then b=3", storage[:2])
	}
	if err := m.SetInt64Property("c", 4); err != nil {
		t.Fatal(err)
	}
	if storage[2] != (PropertyEntry{}) {
		t.Errorf("growing past the reservation wrote the caller's next slot: %+v", storage[2])
	}
	if got := m.PropertyNames(); len(got) != 3 || got[2] != "c" {
		t.Errorf("PropertyNames = %v, want [a b c]", got)
	}
}
