package jms

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewMessageDefaults(t *testing.T) {
	m := NewMessage("presence")
	if got := m.Header.Topic; got != "presence" {
		t.Errorf("Topic = %q, want %q", got, "presence")
	}
	if m.Header.DeliveryMode != Persistent {
		t.Errorf("DeliveryMode = %v, want Persistent", m.Header.DeliveryMode)
	}
	if m.Header.Priority != 4 {
		t.Errorf("Priority = %d, want 4", m.Header.Priority)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestSetCorrelationID(t *testing.T) {
	tests := []struct {
		name    string
		id      string
		wantErr error
	}{
		{name: "empty", id: ""},
		{name: "short", id: "#0"},
		{name: "exactly 128", id: strings.Repeat("x", 128)},
		{name: "too long", id: strings.Repeat("x", 129), wantErr: ErrCorrelationIDTooLong},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewMessage("t")
			err := m.SetCorrelationID(tt.id)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("SetCorrelationID(%d bytes) = %v, want %v", len(tt.id), err, tt.wantErr)
			}
			if tt.wantErr == nil && m.Header.CorrelationID != tt.id {
				t.Errorf("CorrelationID = %q, want %q", m.Header.CorrelationID, tt.id)
			}
		})
	}
}

func TestDeliveryModeString(t *testing.T) {
	if got := Persistent.String(); got != "PERSISTENT" {
		t.Errorf("Persistent.String() = %q", got)
	}
	if got := NonPersistent.String(); got != "NON_PERSISTENT" {
		t.Errorf("NonPersistent.String() = %q", got)
	}
	if got := DeliveryMode(9).String(); got != "DeliveryMode(9)" {
		t.Errorf("DeliveryMode(9).String() = %q", got)
	}
	if DeliveryMode(0).Valid() {
		t.Error("DeliveryMode(0).Valid() = true, want false")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetBoolProperty("online", true); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt32Property("device", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property("ts", 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := m.SetFloat64Property("lat", 49.78); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}

	if v, err := m.BoolProperty("online"); err != nil || v != true {
		t.Errorf("BoolProperty = %v, %v", v, err)
	}
	if v, err := m.Int64Property("device"); err != nil || v != 7 {
		t.Errorf("Int64Property(device) = %v, %v", v, err)
	}
	if v, err := m.Int64Property("ts"); err != nil || v != 1<<40 {
		t.Errorf("Int64Property(ts) = %v, %v", v, err)
	}
	if v, err := m.Float64Property("lat"); err != nil || v != 49.78 {
		t.Errorf("Float64Property = %v, %v", v, err)
	}
	if v, err := m.StringProperty("user"); err != nil || v != "alice" {
		t.Errorf("StringProperty = %v, %v", v, err)
	}
	if n := m.NumProperties(); n != 5 {
		t.Errorf("NumProperties = %d, want 5", n)
	}
}

func TestPropertyTypeMismatch(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Int64Property("user"); !errors.Is(err, ErrPropertyType) {
		t.Errorf("Int64Property on string = %v, want ErrPropertyType", err)
	}
	if _, err := m.BoolProperty("user"); !errors.Is(err, ErrPropertyType) {
		t.Errorf("BoolProperty on string = %v, want ErrPropertyType", err)
	}
	if _, err := m.Float64Property("user"); !errors.Is(err, ErrPropertyType) {
		t.Errorf("Float64Property on string = %v, want ErrPropertyType", err)
	}
	if _, err := m.StringProperty("missing"); !errors.Is(err, ErrNoSuchProperty) {
		t.Errorf("StringProperty(missing) = %v, want ErrNoSuchProperty", err)
	}
}

func TestInvalidPropertyNames(t *testing.T) {
	m := NewMessage("t")
	for _, name := range []string{"", "1abc", "a-b", "a b", "a.b"} {
		if err := m.SetStringProperty(name, "v"); !errors.Is(err, ErrBadPropertyName) {
			t.Errorf("SetStringProperty(%q) = %v, want ErrBadPropertyName", name, err)
		}
	}
	for _, name := range []string{"a", "_a", "$a", "a1", "A_1$"} {
		if err := m.SetStringProperty(name, "v"); err != nil {
			t.Errorf("SetStringProperty(%q) = %v, want nil", name, err)
		}
	}
}

func TestPropertyNamesSorted(t *testing.T) {
	m := NewMessage("t")
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := m.SetBoolProperty(name, true); err != nil {
			t.Fatal(err)
		}
	}
	got := m.PropertyNames()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("PropertyNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PropertyNames = %v, want %v", got, want)
		}
	}
	m.ClearProperties()
	if m.PropertyNames() != nil {
		t.Error("PropertyNames after Clear should be nil")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetCorrelationID("#0"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	m.Body = []byte{1, 2, 3}

	c := m.Clone()
	// Mutate the clone; original must be untouched.
	c.Body[0] = 99
	if err := c.SetStringProperty("user", "bob"); err != nil {
		t.Fatal(err)
	}
	c.Header.CorrelationID = "#1"

	if m.Body[0] != 1 {
		t.Error("Clone shares body with original")
	}
	if v, _ := m.StringProperty("user"); v != "alice" {
		t.Error("Clone shares properties with original")
	}
	if m.Header.CorrelationID != "#0" {
		t.Error("Clone shares header with original")
	}
}

func TestCloneEmpty(t *testing.T) {
	m := NewMessage("t")
	c := m.Clone()
	if c.Body != nil || c.NumProperties() != 0 {
		t.Error("Clone of empty message should be empty")
	}
}

func TestExpired(t *testing.T) {
	now := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	m := NewMessage("t")
	if m.Expired(now) {
		t.Error("message with zero expiration must never expire")
	}
	m.Header.Expiration = now.Add(-time.Second).UnixNano()
	if !m.Expired(now) {
		t.Error("message past expiration should be expired")
	}
	m.Header.Expiration = now.UnixNano()
	if m.Expired(now) {
		t.Error("message at its expiration instant should not be expired yet")
	}
	m.Header.Expiration = now.Add(time.Second).UnixNano()
	if m.Expired(now) {
		t.Error("message before expiration should not be expired")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Message)
		wantErr bool
	}{
		{name: "valid", mutate: func(*Message) {}},
		{name: "no topic", mutate: func(m *Message) { m.Header.Topic = "" }, wantErr: true},
		{name: "bad mode", mutate: func(m *Message) { m.Header.DeliveryMode = 0 }, wantErr: true},
		{name: "priority low", mutate: func(m *Message) { m.Header.Priority = -1 }, wantErr: true},
		{name: "priority high", mutate: func(m *Message) { m.Header.Priority = 10 }, wantErr: true},
		{
			name: "long corr id",
			mutate: func(m *Message) {
				m.Header.CorrelationID = strings.Repeat("y", 200)
			},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewMessage("t")
			tt.mutate(m)
			err := m.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestSizeAccounting(t *testing.T) {
	m := NewMessage("topic")
	base := m.Size()
	if base <= 0 {
		t.Fatalf("Size = %d, want > 0", base)
	}
	m.Body = make([]byte, 100)
	if got := m.Size(); got != base+100 {
		t.Errorf("Size with 100B body = %d, want %d", got, base+100)
	}
	if err := m.SetStringProperty("k", "vvvv"); err != nil {
		t.Fatal(err)
	}
	// name(1) + tag(1) + value(4)
	if got := m.Size(); got != base+100+6 {
		t.Errorf("Size with property = %d, want %d", got, base+100+6)
	}
}

// TestClonePropertyIsolation is a property-based test: for any pair of
// property values written to a clone, the original's map is unaffected.
func TestClonePropertyIsolation(t *testing.T) {
	f := func(key string, origVal, cloneVal int64) bool {
		if !validPropertyName(key) {
			key = "k"
		}
		m := NewMessage("t")
		if err := m.SetInt64Property(key, origVal); err != nil {
			return false
		}
		c := m.Clone()
		if err := c.SetInt64Property(key, cloneVal); err != nil {
			return false
		}
		got, err := m.Int64Property(key)
		return err == nil && got == origVal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValidPropertyNameProperty checks that every accepted name consists
// only of identifier runes and starts with a non-digit.
func TestValidPropertyNameProperty(t *testing.T) {
	f := func(name string) bool {
		ok := validPropertyName(name)
		if !ok {
			return true // only validate accepted names
		}
		if name == "" {
			return false
		}
		first := rune(name[0])
		return first < '0' || first > '9'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedAliasingInvariants(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetCorrelationID("#0"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	m.Body = []byte{1, 2, 3}

	v := m.Shared()
	// The view aliases body and properties but copies the header.
	if &v.Body[0] != &m.Body[0] {
		t.Error("Shared view must alias the body backing array")
	}
	if got, _ := v.StringProperty("user"); got != "alice" {
		t.Errorf("Shared view property = %q, want alice", got)
	}
	v.Header.CorrelationID = "#1"
	if m.Header.CorrelationID != "#0" {
		t.Error("Shared view shares header with original")
	}

	// Clone, by contrast, is deep: no body aliasing.
	c := m.Clone()
	if len(c.Body) > 0 && &c.Body[0] == &m.Body[0] {
		t.Error("Clone must not alias the body backing array")
	}

	// Copy-on-write: mutating the original is invisible in the view.
	if err := m.SetStringProperty("user", "bob"); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.StringProperty("user"); got != "alice" {
		t.Errorf("view observed original's mutation: user = %q", got)
	}
	// ... and mutating a view is invisible in the original and siblings.
	v2 := m.Shared()
	if err := v2.SetStringProperty("user", "carol"); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.StringProperty("user"); got != "bob" {
		t.Errorf("original observed view's mutation: user = %q", got)
	}

	// SetBody detaches: views keep the old backing array.
	m.SetBody([]byte{9})
	if v.Body[0] != 1 {
		t.Error("SetBody on original must not touch the view's body")
	}
}

// TestSharedIntoIsolation: views filled into one slice alias the original's
// body and properties like Shared's, and a property set on one of them shows
// neither on the original nor on a slice-mate.
func TestSharedIntoIsolation(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	m.Body = []byte{1, 2, 3}
	views := make([]Message, 4)
	m.SharedInto(views)
	for i := range views {
		if &views[i].Body[0] != &m.Body[0] {
			t.Errorf("view %d does not alias the body", i)
		}
		if got, _ := views[i].StringProperty("user"); got != "alice" {
			t.Errorf("view %d: user = %q, want alice", i, got)
		}
	}
	if err := views[1].SetStringProperty("user", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("user", "carol"); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"alice", "bob", "alice", "alice"} {
		if got, _ := views[i].StringProperty("user"); got != want {
			t.Errorf("view %d: user = %q, want %q", i, got, want)
		}
	}
}

func TestSharedClearPropertiesDetaches(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetInt64Property("k", 1); err != nil {
		t.Fatal(err)
	}
	v := m.Shared()
	m.ClearProperties()
	if _, err := v.Int64Property("k"); err != nil {
		t.Errorf("view lost property after original's ClearProperties: %v", err)
	}
	if err := m.SetInt64Property("k", 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Int64Property("k"); got != 1 {
		t.Errorf("view observed post-clear mutation: k = %d", got)
	}
}

// TestSharedConcurrentReaders exercises the copy-on-write guarantee under
// the race detector: subscribers read shared views while the publisher
// mutates its original through the setter methods.
func TestSharedConcurrentReaders(t *testing.T) {
	m := NewMessage("t")
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property("seq", 7); err != nil {
		t.Fatal(err)
	}
	m.Body = []byte("payload")

	const readers = 8
	views := make([]*Message, readers)
	for i := range views {
		views[i] = m.Shared()
	}

	var wg sync.WaitGroup
	for _, v := range views {
		wg.Add(1)
		go func(v *Message) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got, _ := v.StringProperty("user"); got != "alice" {
					t.Errorf("view user = %q, want alice", got)
					return
				}
				if got, _ := v.Int64Property("seq"); got != 7 {
					t.Errorf("view seq = %d, want 7", got)
					return
				}
				if string(v.Body) != "payload" {
					t.Error("view body changed")
					return
				}
			}
		}(v)
	}
	// The publisher mutates its original concurrently: the first setter
	// call copies the property map, so readers keep the old one.
	for i := 0; i < 1000; i++ {
		if err := m.SetStringProperty("user", "bob"); err != nil {
			t.Fatal(err)
		}
		if err := m.SetInt64Property("seq", int64(i)); err != nil {
			t.Fatal(err)
		}
		m.SetBody([]byte("replaced"))
	}
	wg.Wait()
}
