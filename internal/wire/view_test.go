package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/jms"
)

// richMessage returns a message exercising every header field and property
// type, the densest case the view parser handles.
func richMessage(t testing.TB) *jms.Message {
	t.Helper()
	m := jms.NewMessage("orders")
	m.Header.MessageID = 424242
	m.Header.TraceID = 777
	if err := m.SetCorrelationID("#42"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetBoolProperty("urgent", true); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt32Property("qty", -12); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property("ts", 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := m.SetFloat64Property("price", 9.75); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("region", "emea"); err != nil {
		t.Fatal(err)
	}
	m.SetBody([]byte("payload bytes"))
	return m
}

func TestMessageViewAccessors(t *testing.T) {
	m := richMessage(t)
	payload := EncodeMessage(m)
	v, err := ParseMessageView(payload)
	if err != nil {
		t.Fatal(err)
	}
	if v.MessageID() != m.Header.MessageID {
		t.Errorf("MessageID = %d, want %d", v.MessageID(), m.Header.MessageID)
	}
	if got := string(v.TopicBytes()); got != m.Header.Topic {
		t.Errorf("Topic = %q, want %q", got, m.Header.Topic)
	}
	if got := string(v.CorrelationIDBytes()); got != m.Header.CorrelationID {
		t.Errorf("CorrelationID = %q, want %q", got, m.Header.CorrelationID)
	}
	if v.DeliveryMode() != m.Header.DeliveryMode {
		t.Errorf("DeliveryMode = %v, want %v", v.DeliveryMode(), m.Header.DeliveryMode)
	}
	if v.Priority() != m.Header.Priority {
		t.Errorf("Priority = %d, want %d", v.Priority(), m.Header.Priority)
	}
	if v.TraceID() != m.Header.TraceID {
		t.Errorf("TraceID = %d, want %d", v.TraceID(), m.Header.TraceID)
	}
	if v.TimestampNanos() != 0 || v.ExpirationNanos() != 0 {
		t.Errorf("unset times = (%d, %d), want (0, 0)", v.TimestampNanos(), v.ExpirationNanos())
	}
	if v.NumProperties() != m.NumProperties() {
		t.Errorf("NumProperties = %d, want %d", v.NumProperties(), m.NumProperties())
	}
	if !bytes.Equal(v.Body(), m.Body) {
		t.Errorf("Body = %q, want %q", v.Body(), m.Body)
	}

	// Every property yielded by the walk must match the materialized map.
	var walked int
	v.EachProperty(func(p PropertyView) bool {
		walked++
		got, ok := m.Property(string(p.Name))
		if !ok {
			t.Errorf("EachProperty yielded unknown name %q", p.Name)
			return true
		}
		if got.Type != p.Type {
			t.Errorf("property %q type = %v, want %v", p.Name, p.Type, got.Type)
		}
		switch p.Type {
		case jms.TypeBool:
			if got.B != p.Bool {
				t.Errorf("property %q = %v, want %v", p.Name, p.Bool, got.B)
			}
		case jms.TypeInt32, jms.TypeInt64:
			if got.I != p.Int {
				t.Errorf("property %q = %d, want %d", p.Name, p.Int, got.I)
			}
		case jms.TypeFloat64:
			if got.F != p.F {
				t.Errorf("property %q = %v, want %v", p.Name, p.F, got.F)
			}
		case jms.TypeString:
			if got.S != string(p.Str) {
				t.Errorf("property %q = %q, want %q", p.Name, p.Str, got.S)
			}
		}
		return true
	})
	if walked != v.NumProperties() {
		t.Errorf("EachProperty walked %d, want %d", walked, v.NumProperties())
	}
}

// TestDecodeMessageArenaParity holds the arena decoder to DecodeMessage's
// output: for a spread of messages, both paths must materialize messages
// whose canonical encodings are byte-identical.
func TestDecodeMessageArenaParity(t *testing.T) {
	empty := jms.NewMessage("t")
	bodied := jms.NewMessage("t")
	bodied.SetBody(bytes.Repeat([]byte{0xab}, 300))
	cases := []*jms.Message{richMessage(t), empty, bodied}
	arena := NewMessageArena()
	for i, m := range cases {
		payload := EncodeMessage(m)
		ref, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("case %d: DecodeMessage: %v", i, err)
		}
		got, err := arena.DecodeMessageArena(payload)
		if err != nil {
			t.Fatalf("case %d: DecodeMessageArena: %v", i, err)
		}
		if !bytes.Equal(EncodeMessage(ref), EncodeMessage(got)) {
			t.Errorf("case %d: arena decode diverges from DecodeMessage", i)
		}
	}
}

func TestAppendBatchMessagesParity(t *testing.T) {
	small := jms.NewMessage("t")
	batches := [][]*jms.Message{
		nil,
		{small},
		{richMessage(t), small, richMessage(t)},
	}
	arena := NewMessageArena()
	var dst []*jms.Message
	for i, batch := range batches {
		payload := EncodeBatch(batch)
		ref, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("batch %d: DecodeBatch: %v", i, err)
		}
		dst, err = arena.AppendBatchMessages(dst[:0], payload)
		if err != nil {
			t.Fatalf("batch %d: AppendBatchMessages: %v", i, err)
		}
		if len(dst) != len(ref) {
			t.Fatalf("batch %d: got %d messages, want %d", i, len(dst), len(ref))
		}
		for j := range ref {
			if !bytes.Equal(EncodeMessage(ref[j]), EncodeMessage(dst[j])) {
				t.Errorf("batch %d message %d: arena decode diverges", i, j)
			}
		}
	}
}

func TestDecodeDeliveryArenaParity(t *testing.T) {
	m := richMessage(t)
	payload := EncodeDelivery(3, 41, m)
	arena := NewMessageArena()
	subID, seq, got, err := arena.DecodeDeliveryArena(payload)
	if err != nil {
		t.Fatal(err)
	}
	if subID != 3 || seq != 41 {
		t.Errorf("ids = (%d, %d), want (3, 41)", subID, seq)
	}
	if !bytes.Equal(EncodeMessage(m), EncodeMessage(got)) {
		t.Error("delivery message diverges from original")
	}
}

// TestMessageViewRejects feeds malformed payloads to both decoders: the
// view parser must reject exactly what DecodeMessage rejects.
func TestMessageViewRejects(t *testing.T) {
	valid := EncodeMessage(richMessage(t))

	longCorr := jms.NewMessage("t")
	longCorrPayload := func() []byte {
		// Hand-encode a correlation ID one byte over the limit; the setter
		// would refuse to build it.
		var e encoder
		e.u64(0)
		e.str("t")
		e.str(string(bytes.Repeat([]byte{'x'}, jms.MaxCorrelationIDLen+1)))
		e.u8(uint8(longCorr.Header.DeliveryMode))
		e.u8(4)
		e.i64(0)
		e.i64(0)
		e.u64(0)
		e.u32(0)
		e.u32(0)
		return e.buf
	}()

	badName := func() []byte {
		var e encoder
		e.u64(0)
		e.str("t")
		e.str("")
		e.u8(1)
		e.u8(4)
		e.i64(0)
		e.i64(0)
		e.u64(0)
		e.u32(1)
		e.str("9bad") // property names cannot start with a digit
		e.u8(uint8(jms.TypeBool))
		e.u8(1)
		e.u32(0)
		return e.buf
	}()

	badType := func() []byte {
		var e encoder
		e.u64(0)
		e.str("t")
		e.str("")
		e.u8(1)
		e.u8(4)
		e.i64(0)
		e.i64(0)
		e.u64(0)
		e.u32(1)
		e.str("ok")
		e.u8(99) // no such property type
		e.u8(1)
		e.u32(0)
		return e.buf
	}()

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:9]},
		{"truncated mid-topic", valid[:10]},
		{"truncated body", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte{}, valid...), 0xff)},
		{"correlation id too long", longCorrPayload},
		{"bad property name", badName},
		{"unknown property type", badType},
	}
	arena := NewMessageArena()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := DecodeMessage(tc.payload)
			if refErr == nil {
				t.Fatal("DecodeMessage accepted a malformed payload")
			}
			if _, err := ParseMessageView(tc.payload); err == nil {
				t.Error("ParseMessageView accepted what DecodeMessage rejects")
			}
			if _, err := arena.DecodeMessageArena(tc.payload); err == nil {
				t.Error("DecodeMessageArena accepted what DecodeMessage rejects")
			}
		})
	}
}

// TestMessageViewDuplicateProperties: the wire format can carry duplicate
// property names; both decoders collapse them last-wins.
func TestMessageViewDuplicateProperties(t *testing.T) {
	var e encoder
	e.u64(0)
	e.str("t")
	e.str("")
	e.u8(1)
	e.u8(4)
	e.i64(0)
	e.i64(0)
	e.u64(0)
	e.u32(2)
	e.str("qty")
	e.u8(uint8(jms.TypeInt64))
	e.i64(1)
	e.str("qty")
	e.u8(uint8(jms.TypeInt64))
	e.i64(2)
	e.u32(0)
	payload := e.buf

	ref, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseMessageView(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The view reports the wire count; materialization collapses.
	if v.NumProperties() != 2 {
		t.Errorf("view NumProperties = %d, want 2", v.NumProperties())
	}
	got, err := NewMessageArena().DecodeMessageArena(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProperties() != 1 || ref.NumProperties() != 1 {
		t.Fatalf("materialized counts = (%d, %d), want (1, 1)", got.NumProperties(), ref.NumProperties())
	}
	if p, _ := got.Property("qty"); p.I != 2 {
		t.Errorf("duplicate property resolved to %d, want last-wins 2", p.I)
	}
	if !bytes.Equal(EncodeMessage(ref), EncodeMessage(got)) {
		t.Error("arena decode diverges from DecodeMessage on duplicates")
	}
}

// TestArenaInternCacheReset drives the intern cache past its bound: decoding
// must stay correct when the cache resets, and interning must still dedupe
// repeated topics to the same string backing.
func TestArenaInternCacheReset(t *testing.T) {
	arena := NewMessageArena()
	for i := 0; i < internCacheMax+10; i++ {
		m := jms.NewMessage(fmt.Sprintf("topic-%d", i))
		got, err := arena.DecodeMessageArena(EncodeMessage(m))
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.Topic != m.Header.Topic {
			t.Fatalf("topic %d decoded as %q", i, got.Header.Topic)
		}
	}
	if len(arena.cache) > internCacheMax {
		t.Errorf("intern cache grew to %d, bound is %d", len(arena.cache), internCacheMax)
	}
}

func TestAppendBatchMessagesRejects(t *testing.T) {
	small := jms.NewMessage("t")
	valid := EncodeBatch([]*jms.Message{small})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"short count", []byte{0, 0, 1}},
		{"count exceeds payload", []byte{0, 0, 0, 9, 0, 0}},
		{"trailing garbage", append(append([]byte{}, valid...), 0xab)},
		{"truncated member", valid[:len(valid)-1]},
	}
	arena := NewMessageArena()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, refErr := DecodeBatch(tc.payload); refErr == nil {
				t.Fatal("DecodeBatch accepted a malformed payload")
			}
			if _, err := arena.AppendBatchMessages(nil, tc.payload); err == nil {
				t.Error("AppendBatchMessages accepted what DecodeBatch rejects")
			}
		})
	}
	if _, err := arena.AppendBatchMessages(nil, valid[:len(valid)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated member error = %v, want ErrTruncated", err)
	}
}

// anatomyMessage is the message the paper's filters match on, as the
// repository benchmark publishes it: correlation ID, string properties, a
// small body.
func anatomyMessage(t testing.TB, id int) *jms.Message {
	t.Helper()
	m := jms.NewMessage("orders")
	m.Header.MessageID = uint64(id)
	if err := m.SetCorrelationID(fmt.Sprintf("dev-%06d", id)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("region", "emea"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property("qty", int64(id)); err != nil {
		t.Fatal(err)
	}
	m.SetBody(bytes.Repeat([]byte{byte(id)}, 128))
	return m
}

// TestArenaAllocationBudget is the tier-1 form of the -maxallocs ceilings:
// a 16-message batch costs at most one chunk of each kind, and single
// deliveries amortize their chunks to a small fraction of an allocation
// each (a per-delivery allocation would show as 64 or more).
func TestArenaAllocationBudget(t *testing.T) {
	batch := make([]*jms.Message, 16)
	for i := range batch {
		batch[i] = anatomyMessage(t, i)
	}
	batchPayload := EncodeBatch(batch)
	delivery := EncodeDelivery(7, 0, batch[0])
	arena := NewMessageArena()
	dst := make([]*jms.Message, 0, len(batch))
	// Warm the intern cache: names are allocated once per connection.
	if _, err := arena.AppendBatchMessages(dst, batchPayload); err != nil {
		t.Fatal(err)
	}

	perBatch := testing.AllocsPerRun(200, func() {
		if _, err := arena.AppendBatchMessages(dst, batchPayload); err != nil {
			t.Fatal(err)
		}
	})
	if perBatch > 3 {
		t.Errorf("16-message batch: %v allocs, budget 3", perBatch)
	}
	per64 := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			if _, _, _, err := arena.DecodeDeliveryArena(delivery); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per64 > 16 {
		t.Errorf("64 deliveries: %v allocs, budget 16 (chunks must amortize)", per64)
	}
}

// TestArenaRetention: messages are carved from shared chunks, so one kept
// while the arena moves on must not change when later messages are carved,
// and the arena itself must hold on to no more than the unused tail of one
// chunk per kind.
func TestArenaRetention(t *testing.T) {
	arena := NewMessageArena()
	kept, err := arena.DecodeMessageArena(EncodeMessage(anatomyMessage(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeMessage(kept)
	wantCorr, wantBody := kept.Header.CorrelationID, string(kept.Body)

	// 8 chunks of every kind: messages are the slowest to turn over.
	for i := 0; i < 8*msgChunk*4; i++ {
		if _, err := arena.DecodeMessageArena(EncodeMessage(anatomyMessage(t, i))); err != nil {
			t.Fatal(err)
		}
		if cap(arena.msgs) > msgChunk || cap(arena.props) > propChunk || cap(arena.bytes) > byteChunk {
			t.Fatalf("after %d messages the arena holds more than one chunk per kind: %d msgs, %d props, %d bytes",
				i, cap(arena.msgs), cap(arena.props), cap(arena.bytes))
		}
	}
	if got := EncodeMessage(kept); !bytes.Equal(got, want) ||
		kept.Header.CorrelationID != wantCorr || string(kept.Body) != wantBody {
		t.Errorf("retained message changed while the arena moved on:\n%x\n%x", want, got)
	}

	// A holder appending to what it was given must not reach a neighbour.
	next, err := arena.DecodeMessageArena(EncodeMessage(anatomyMessage(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	nextWant := EncodeMessage(next)
	kept.Body = append(kept.Body, 0xee)
	if err := kept.SetStringProperty("added", "x"); err != nil {
		t.Fatal(err)
	}
	last, err := arena.DecodeMessageArena(EncodeMessage(anatomyMessage(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeMessage(next), nextWant) || !bytes.Equal(EncodeMessage(last), EncodeMessage(anatomyMessage(t, 3))) {
		t.Error("growing a retained message wrote into a neighbouring carving")
	}
}

// TestArenaLargeValuesBypassChunks: a message over a quarter chunk gets its
// own allocations, struct included, so a large body neither evicts the chunk
// small messages are sharing nor is pinned by them.
func TestArenaLargeValuesBypassChunks(t *testing.T) {
	arena := NewMessageArena()
	if _, err := arena.DecodeMessageArena(EncodeMessage(anatomyMessage(t, 1))); err != nil {
		t.Fatal(err)
	}
	tail, structs := len(arena.bytes), len(arena.msgs)
	big := jms.NewMessage("orders")
	big.SetBody(bytes.Repeat([]byte{7}, byteChunk))
	for i := 0; i < propChunk; i++ {
		if err := big.SetInt64Property(fmt.Sprintf("p%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := arena.DecodeMessageArena(EncodeMessage(big))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeMessage(got), EncodeMessage(big)) {
		t.Error("large message diverges")
	}
	if len(arena.bytes) != tail || len(arena.msgs) != structs {
		t.Errorf("large message went through the chunks: bytes tail %d -> %d, struct tail %d -> %d",
			tail, len(arena.bytes), structs, len(arena.msgs))
	}
}

// TestArenaRetainedMessagePinsBoundedBytes: a kept message keeps its chunk
// of message structs reachable, so nothing a chunk-mate references may be
// large. One small message in 32 is kept from a stream of 64 KiB-body
// deliveries; every large message must still be collected, which a finalizer
// observes (and which only an allocation of its own can carry).
func TestArenaRetainedMessagePinsBoundedBytes(t *testing.T) {
	arena := NewMessageArena()
	large := jms.NewMessage("orders")
	large.SetBody(bytes.Repeat([]byte{9}, 64<<10))
	largePayload := EncodeMessage(large)
	smallPayload := EncodeMessage(anatomyMessage(t, 1))

	var kept []*jms.Message
	var collected atomic.Int64
	const rounds, perRound = 8, 32
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			payload := largePayload
			if i == perRound/2 {
				payload = smallPayload
			}
			m, err := arena.DecodeMessageArena(payload)
			if err != nil {
				t.Fatal(err)
			}
			if i == perRound/2 {
				kept = append(kept, m)
			} else {
				runtime.SetFinalizer(m, func(*jms.Message) { collected.Add(1) })
			}
		}
	}
	want := int64(rounds * (perRound - 1))
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Errorf("%d of %d large messages collected while %d small neighbours are retained", got, want, len(kept))
	}
	for _, m := range kept {
		if !bytes.Equal(EncodeMessage(m), smallPayload) {
			t.Fatal("retained message changed")
		}
	}
}

// manyPropertiesPayload encodes a message whose property section holds the
// given names in the given order, each an int64 valued by its position.
func manyPropertiesPayload(names []string) []byte {
	var e encoder
	e.u64(0)
	e.str("t")
	e.str("")
	e.u8(1)
	e.u8(4)
	e.i64(0)
	e.i64(0)
	e.u64(0)
	e.u32(uint32(len(names)))
	for i, name := range names {
		e.str(name)
		e.u8(uint8(jms.TypeInt64))
		e.i64(int64(i))
	}
	e.u32(0)
	return e.buf
}

// TestDecodeManyPropertiesScales: the property count is bounded only by the
// frame size, so decoding must stay near-linear in it — and allocate in
// proportion to the frame, not to 64-byte entries per encoded property —
// whatever order the names arrive in. The cases a peer could choose to hurt:
// descending names (every set lands at the front), shuffled names with
// repeats, and one name repeated throughout. Each is checked against a map
// oracle, on both decoders.
func TestDecodeManyPropertiesScales(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(15))
	descending := make([]string, n)
	shuffled := make([]string, n)
	repeated := make([]string, n)
	for i := range descending {
		descending[i] = fmt.Sprintf("p%06d", n-i)
		shuffled[i] = fmt.Sprintf("p%06d", rng.Intn(n/2))
		repeated[i] = "a"
	}
	decoders := map[string]func([]byte) (*jms.Message, error){
		"DecodeMessage":      DecodeMessage,
		"DecodeMessageArena": func(p []byte) (*jms.Message, error) { return NewMessageArena().DecodeMessageArena(p) },
	}
	for caseName, names := range map[string][]string{"descending": descending, "shuffled": shuffled, "repeated": repeated} {
		payload := manyPropertiesPayload(names)
		oracle := make(map[string]int64)
		for i, name := range names {
			oracle[name] = int64(i)
		}
		for decName, decode := range decoders {
			t.Run(caseName+"/"+decName, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				m, err := decode(payload)
				elapsed := time.Since(start)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				// Measured: 30-60 ms. The quadratic decode took over a minute.
				if elapsed > 5*time.Second {
					t.Errorf("decoding %d properties took %v", n, elapsed)
				}
				// One word per encoded property for the order; per distinct
				// name a 64 B entry (times the slack of growing by append),
				// its string and its intern-cache slot.
				budget := uint64(2*len(payload) + 400*len(oracle))
				if got := after.TotalAlloc - before.TotalAlloc; got > budget {
					t.Errorf("decoding a %d-byte payload with %d distinct names allocated %d bytes, budget %d",
						len(payload), len(oracle), got, budget)
				}
				if m.NumProperties() != len(oracle) {
					t.Fatalf("%d properties, want %d", m.NumProperties(), len(oracle))
				}
				prev := ""
				for i := 0; i < m.NumProperties(); i++ {
					name, p := m.PropertyAt(i)
					if name <= prev {
						t.Fatalf("section out of order at %d: %q after %q", i, name, prev)
					}
					if want, ok := oracle[name]; !ok || p.I != want {
						t.Fatalf("%q = %d, want %d (last wins)", name, p.I, want)
					}
					prev = name
				}
			})
		}
	}
}

// TestArenaChunksFillSizeClass: a struct or property chunk is as many
// elements as fit the 4 KiB size class, no more and not an element fewer.
// Both element types hold pointers, so Go allocates such a chunk with an
// 8-byte header in front: the elements get 4 088 bytes. What one chunk
// allocation costs is measured too — 4 KiB, where a chunk one element
// larger would take the 4 864-byte class.
func TestArenaChunksFillSizeClass(t *testing.T) {
	const class, header = 4 << 10, 8
	for _, c := range []struct {
		name    string
		elem, n int
		alloc   func()
	}{
		{"message", int(unsafe.Sizeof(jms.Message{})), msgChunk, func() { chunkSink = make([]jms.Message, msgChunk) }},
		{"property", int(unsafe.Sizeof(jms.PropertyEntry{})), propChunk, func() { chunkSink = make([]jms.PropertyEntry, propChunk) }},
	} {
		if got := c.n*c.elem + header; got > class || class-got >= c.elem {
			t.Errorf("%s chunk: %d × %d B + %d B header = %d B, want at most %d and within one element of it",
				c.name, c.n, c.elem, header, got, class)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.alloc()
		}
		runtime.ReadMemStats(&after)
		// Anything else allocating meanwhile only adds; the next class up
		// is 768 bytes away.
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per < class || per >= class+256 {
			t.Errorf("%s chunk: %d B per allocation, want the %d B size class", c.name, per, class)
		}
	}
	chunkSink = nil
}

// chunkSink keeps TestArenaChunksFillSizeClass's allocations from being
// optimized away.
var chunkSink any
