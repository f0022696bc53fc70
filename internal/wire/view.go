package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/broker"
	"repro/internal/jms"
)

// This file is the lazy half of the codec: ParseMessageView validates a
// message payload in place without materializing a *jms.Message, and
// MessageArena materializes validated views out of chunked storage, so a
// whole batch costs at most three allocations instead of several per
// message. The view parser accepts exactly the payloads DecodeMessage
// accepts and rejects exactly the ones it rejects — FuzzDecodeMessageView
// holds the two byte-for-byte equivalent, and both to a map oracle. They
// share the check of the property section (skipProperties) and the order
// out-of-order names are set in (propertyOrder); header parsing, the jms
// setters' own name check and storage are separate.

// MessageView is a validated, zero-copy view over an encoded message
// payload. The view and every accessor result alias the payload bytes: they
// are valid only while the payload is (for frames from a FrameReader, until
// the next call to Next).
type MessageView struct {
	payload []byte

	msgID              uint64
	topicOff, topicLen int
	corrOff, corrLen   int
	mode, prio         uint8
	ts, exp            int64
	traceID            uint64
	nProps             int
	propsOff           int
	bodyOff, bodyLen   int
	// ordered: the property names arrive strictly ascending, the order the
	// encoder writes and the order the message keeps them in.
	ordered bool
	// strLen is the total length of the string property values.
	strLen int
}

// strView consumes a length-prefixed string field, returning its offset and
// length instead of materializing a string.
func (d *decoder) strView() (off, n int, err error) {
	ln, err := d.u32()
	if err != nil {
		return 0, 0, err
	}
	if d.remain() < int(ln) {
		return 0, 0, ErrTruncated
	}
	off = d.off
	d.off += int(ln)
	return off, int(ln), nil
}

// validPropertyNameBytes is the byte-wise twin of jms's property-name rule
// (a letter, '_' or '$' followed by letters, digits, '_' or '$'). Byte-wise
// and rune-wise agree on every input: any byte >= 0x80 is neither an ASCII
// letter nor digit here, and the rune it begins decodes outside both ranges
// there.
func validPropertyNameBytes(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		isLetter := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == '$'
		isDigit := c >= '0' && c <= '9'
		if i == 0 && !isLetter {
			return false
		}
		if !isLetter && !isDigit {
			return false
		}
	}
	return true
}

// skipProperties checks a section of n encoded properties: names, types,
// and that every value is all there. It reports whether the names arrive
// strictly ascending — then setting them in wire order appends each to the
// message's sorted section, and no name repeats — and the total length of
// the string values.
func (d *decoder) skipProperties(n int) (ordered bool, strLen int, err error) {
	ordered = true
	var prev []byte
	for i := 0; i < n; i++ {
		nameOff, nameLen, err := d.strView()
		if err != nil {
			return false, 0, err
		}
		name := d.buf[nameOff : nameOff+nameLen]
		if !validPropertyNameBytes(name) {
			return false, 0, fmt.Errorf("%w: %q", jms.ErrBadPropertyName, name)
		}
		if i > 0 && bytes.Compare(prev, name) >= 0 {
			ordered = false
		}
		prev = name
		typ, err := d.u8()
		if err != nil {
			return false, 0, err
		}
		switch jms.PropertyType(typ) {
		case jms.TypeBool:
			_, err = d.u8()
		case jms.TypeInt32, jms.TypeInt64:
			_, err = d.i64()
		case jms.TypeFloat64:
			_, err = d.f64()
		case jms.TypeString:
			var ln int
			_, ln, err = d.strView()
			strLen += ln
		default:
			err = fmt.Errorf("wire: unknown property type %d", typ)
		}
		if err != nil {
			return false, 0, err
		}
	}
	return ordered, strLen, nil
}

// propertyOrder is the decoders' path for a validated section of n
// properties at buf[off:] whose names do not arrive strictly ascending,
// which the encoder never writes: it returns the offsets of the properties
// to set, ascending by name and only the last of each repeated name.
// Setting them in that order appends, where wire order would move the
// section once per property — quadratic in a count only the frame size
// bounds. The cost is one sort and one word per encoded property.
func propertyOrder(buf []byte, off, n int) []int {
	name := func(o int) []byte {
		return buf[o+4 : o+4+int(binary.BigEndian.Uint32(buf[o:]))]
	}
	offs := make([]int, n)
	d := decoder{buf: buf, off: off}
	for i := range offs {
		offs[i] = d.off
		d.property()
	}
	slices.SortFunc(offs, func(x, y int) int {
		if c := bytes.Compare(name(x), name(y)); c != 0 {
			return c
		}
		return x - y
	})
	last := offs[:0]
	for i, o := range offs {
		if i+1 == len(offs) || !bytes.Equal(name(o), name(offs[i+1])) {
			last = append(last, o)
		}
	}
	return last
}

// ParseMessageView validates payload as one encoded message and returns a
// zero-copy view of it. It performs the full validation DecodeMessage does
// — truncation, correlation-ID length, property names and types, trailing
// bytes — so a payload that parses here is guaranteed to materialize.
func ParseMessageView(payload []byte) (MessageView, error) {
	v := MessageView{payload: payload}
	d := decoder{buf: payload}
	var err error
	if v.msgID, err = d.u64(); err != nil {
		return v, err
	}
	if v.topicOff, v.topicLen, err = d.strView(); err != nil {
		return v, err
	}
	if v.corrOff, v.corrLen, err = d.strView(); err != nil {
		return v, err
	}
	if v.corrLen > jms.MaxCorrelationIDLen {
		return v, fmt.Errorf("%w: %d bytes", jms.ErrCorrelationIDTooLong, v.corrLen)
	}
	if v.mode, err = d.u8(); err != nil {
		return v, err
	}
	if v.prio, err = d.u8(); err != nil {
		return v, err
	}
	if v.ts, err = d.i64(); err != nil {
		return v, err
	}
	if v.exp, err = d.i64(); err != nil {
		return v, err
	}
	if v.traceID, err = d.u64(); err != nil {
		return v, err
	}
	nProps, err := d.u32()
	if err != nil {
		return v, err
	}
	v.nProps = int(nProps)
	v.propsOff = d.off
	if v.ordered, v.strLen, err = d.skipProperties(v.nProps); err != nil {
		return v, err
	}
	bodyLen, err := d.u32()
	if err != nil {
		return v, err
	}
	if d.remain() < int(bodyLen) {
		return v, ErrTruncated
	}
	v.bodyOff = d.off
	v.bodyLen = int(bodyLen)
	d.off += int(bodyLen)
	if d.remain() != 0 {
		return v, fmt.Errorf("wire: %d trailing bytes in message payload", d.remain())
	}
	return v, nil
}

// Accessors. Byte-slice results alias the payload.

// MessageID returns the header message ID.
func (v *MessageView) MessageID() uint64 { return v.msgID }

// TopicBytes returns the topic name bytes.
func (v *MessageView) TopicBytes() []byte { return v.payload[v.topicOff : v.topicOff+v.topicLen] }

// CorrelationIDBytes returns the correlation ID bytes.
func (v *MessageView) CorrelationIDBytes() []byte {
	return v.payload[v.corrOff : v.corrOff+v.corrLen]
}

// DeliveryMode returns the wire delivery mode (not validity-checked, like
// DecodeMessage).
func (v *MessageView) DeliveryMode() jms.DeliveryMode { return jms.DeliveryMode(v.mode) }

// Priority returns the wire priority, as the decoded header holds it.
func (v *MessageView) Priority() int8 { return int8(v.prio) }

// TimestampNanos returns the send timestamp in unix nanos (0 = unset).
func (v *MessageView) TimestampNanos() int64 { return v.ts }

// ExpirationNanos returns the expiry in unix nanos (0 = never).
func (v *MessageView) ExpirationNanos() int64 { return v.exp }

// TraceID returns the trace ID (0 = untraced).
func (v *MessageView) TraceID() uint64 { return v.traceID }

// NumProperties returns the wire property count. Duplicate names are
// counted as encoded; materialization collapses them last-wins, exactly as
// DecodeMessage does.
func (v *MessageView) NumProperties() int { return v.nProps }

// Body returns the body bytes (nil when empty).
func (v *MessageView) Body() []byte {
	if v.bodyLen == 0 {
		return nil
	}
	return v.payload[v.bodyOff : v.bodyOff+v.bodyLen]
}

// PropertyView is one property yielded by EachProperty. Name and Str alias
// the payload.
type PropertyView struct {
	Name []byte
	Type jms.PropertyType
	Bool bool
	Int  int64
	F    float64
	Str  []byte
}

// property decodes the property at d. The section was bounds-checked at
// parse time, so the decode cannot fail.
func (d *decoder) property() (p PropertyView) {
	nameOff, nameLen, _ := d.strView()
	p.Name = d.buf[nameOff : nameOff+nameLen]
	typ, _ := d.u8()
	p.Type = jms.PropertyType(typ)
	switch p.Type {
	case jms.TypeBool:
		b, _ := d.u8()
		p.Bool = b != 0
	case jms.TypeInt32, jms.TypeInt64:
		p.Int, _ = d.i64()
	case jms.TypeFloat64:
		p.F, _ = d.f64()
	case jms.TypeString:
		off, n, _ := d.strView()
		p.Str = d.buf[off : off+n]
	}
	return p
}

// EachProperty calls fn for each property in wire order until fn returns
// false.
func (v *MessageView) EachProperty(fn func(PropertyView) bool) {
	d := decoder{buf: v.payload, off: v.propsOff}
	for i := 0; i < v.nProps && fn(d.property()); i++ {
	}
}

// internCacheMax bounds the arena's string-intern cache. Topics and
// property names repeat across the lifetime of a connection, so the cache
// normally stays tiny; a hostile peer cycling names just degrades back to
// one string allocation per unique name.
const internCacheMax = 1024

// Chunk sizes, per kind of storage a message needs. A chunk serves a few
// dozen small messages; a part of a message that needs over a quarter of a
// chunk is not carved (see carve and MessageArena.body), so an abandoned
// chunk tail wastes at most that quarter. The struct and property chunks
// each fill the 4 KiB size class: their elements hold pointers, and Go puts
// an 8-byte header in front of such an object over 512 bytes, so
// chunkBytes is what a chunk may hold — 32 messages would take the
// 4 864-byte class.
const (
	chunkBytes = 4<<10 - 8
	// jms.Message structs: 31 of 128 bytes.
	msgChunk = chunkBytes / int(unsafe.Sizeof(jms.Message{}))
	// Property entries: 73 of 56 bytes.
	propChunk = chunkBytes / int(unsafe.Sizeof(jms.PropertyEntry{}))
	// Runs of correlation ID + string property values + body.
	byteChunk = 8 << 10
)

// MessageArena materializes MessageViews into *jms.Message values without
// a per-message allocation: the Message struct, its property section and
// one run of bytes (correlation ID, string property values, body) are carved
// from chunks — one per kind, replaced when used up — and topic/property-name
// strings are interned for the arena's lifetime. A message needing over a
// quarter chunk of any kind gets that part, and its struct, allocated on its
// own — except a recycling arena's large body, which takes pooled body
// storage and leaves the struct in the slab. An arena is not safe for
// concurrent use; each connection owns its own. It comes in two forms,
// which differ only in where storage comes from and goes to.
//
// NewMessageArena's arena is GC-owned, for a subscriber whose application
// keeps what it receives: each chunk is its own allocation, written once,
// front to back, and never recycled. A 16-message batch costs at most one
// chunk of each kind, three allocations; a stream of single deliveries a
// fraction of one each. The price is coupling: a retained message keeps its
// chunk of 31 structs reachable, and through its 30 neighbours the byte and
// property chunks they were carved from. Only small messages share a struct
// chunk, so for the paper's messages (about 150 bytes, a property or two) a
// retained message pins one chunk of each kind, two where its neighbours
// straddle a boundary — 16 to 28 KiB; the worst case, 30 neighbours each
// just under the quarter-chunk limits, is under 150 KiB.
//
// The server's arena (newSlabArena) recycles: it carves from slabs, each a
// chunk of every kind in one allocation, taken from a pool and counted — one
// reference for the arena while the slab is current, one for each publish
// carrier carved from it (claimSlabs hands them over). A slab whose last
// reference is dropped is scrubbed and pooled, so a steady publish stream
// allocates no storage; a slab some escaped carrier still references is
// never pooled and the GC reclaims it as before (see broker.BatchCarrier
// for who holds and who releases). A body over a quarter chunk, up to
// 64 KiB, is pooled body storage of its own (bodyStore) that its carrier
// holds the same way; a connection that never sees one holds none. Either
// way a carving is written once, before it is handed out, and not again
// while any message carved from it may be read: that is what makes the
// strings aliasing a byte run as immutable as runtime-allocated ones. A
// string that outlives its message — the dedupe table's publisher key — is
// copied by whoever keeps it.
type MessageArena struct {
	cache map[string]string
	// The unused tails of the current chunks.
	msgs  []jms.Message
	props []jms.PropertyEntry
	bytes []byte
	// slabs marks a recycling arena; cur is its current slab and taken the
	// claims on it so far, claims the slabs carved from since claimSlabs
	// last ran, each with a reference taken for the carrier, and bodies the
	// body storage handed out since then. bodies is allocated at the first
	// body over a quarter chunk, and is a pointer to keep the arena in its
	// 128-byte size class.
	cur    *slab
	claims []*slab
	bodies *[]broker.Slab
	taken  int32
	slabs  bool
}

// NewMessageArena returns an empty GC-owned arena. It holds no chunk until
// the first message is materialized.
func NewMessageArena() *MessageArena {
	return &MessageArena{cache: make(map[string]string, 16)}
}

// intern returns the canonical string for b, allocating only the first time
// a name is seen.
func (a *MessageArena) intern(b []byte) string {
	if s, ok := a.cache[string(b)]; ok {
		return s
	}
	if len(a.cache) >= internCacheMax {
		a.cache = make(map[string]string, 16)
	}
	s := string(b)
	a.cache[s] = s
	return s
}

// carve cuts n zero elements off the front of *tail, the unused part of one
// of a's current chunks, starting a new chunk (a new slab, on a recycling
// arena) when they do not fit; over a quarter chunk it allocates them on
// their own instead. The result is capacity-limited, so an append by its
// holder reallocates instead of running into the next carving.
func carve[T any](a *MessageArena, tail *[]T, n, chunk int) []T {
	if n == 0 {
		return nil
	}
	if n > len(*tail) {
		if n > chunk/4 {
			return make([]T, n)
		}
		if a.slabs {
			a.rotate()
		} else {
			*tail = make([]T, chunk)
		}
	}
	if a.cur != nil {
		a.claim()
	}
	s := (*tail)[:n:n]
	*tail = (*tail)[n:]
	return s
}

// cut copies b to the front of *run, the unwritten part of one message's
// byte run, and returns the copy, capacity-limited like every carving.
func cut(run *[]byte, b []byte) []byte {
	c := (*run)[:len(b):len(b)]
	*run = (*run)[len(b):]
	copy(c, b)
	return c
}

// cutString is cut for a value handed out as a string. The bytes are not
// written again while the message may be read (see MessageArena), so the
// string is as immutable as one the runtime allocated for as long as the
// message lives; a holder keeping it longer copies it.
func cutString(run *[]byte, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	c := cut(run, b)
	return unsafe.String(&c[0], len(c))
}

// materialize carves a message and fills it from v.
func (a *MessageArena) materialize(v *MessageView) (*jms.Message, error) {
	var m *jms.Message
	if runLen, bigBody := v.runLen(); runLen > byteChunk/4 || v.nProps > propChunk/4 ||
		bigBody && !a.pooledBody(v.bodyLen) {
		// Too large for the chunks: this message is allocated on its own, so
		// the messages that do share a chunk only ever reference chunks and
		// pooled storage, and no retained neighbour pins a large allocation.
		m = new(jms.Message)
	} else {
		m = &carve(a, &a.msgs, 1, msgChunk)[0]
	}
	if err := a.MaterializeInto(m, v); err != nil {
		return nil, err
	}
	return m, nil
}

// runLen returns the length of the one byte run that holds v's correlation
// ID, string values and body, and whether the body is over a quarter chunk
// and is storage of its own instead (then the run leaves it out; see
// MessageArena.body).
func (v *MessageView) runLen() (n int, bigBody bool) {
	n, bigBody = v.corrLen+v.strLen, v.bodyLen > byteChunk/4
	if !bigBody {
		n += v.bodyLen
	}
	return n, bigBody
}

// pooledBody reports whether a's body of n bytes, over a quarter chunk, is
// pooled body storage rather than an allocation of its own.
func (a *MessageArena) pooledBody(n int) bool { return a.slabs && n <= maxPooledBody }

// MaterializeInto fills m, a zero message whose storage the caller owns,
// from v: the property section and the byte run are carved from the arena
// as for DecodeMessageArena, only the struct is the caller's. A subscriber
// decodes a MESSAGE_FANOUT into the last element of the slab that holds its
// R deliveries this way (ParseFanout).
func (a *MessageArena) MaterializeInto(m *jms.Message, v *MessageView) error {
	// The properties to set: all of them in wire order, or, for an order the
	// encoder never writes, the surviving ones in name order.
	n := v.nProps
	var order []int
	if !v.ordered {
		order = propertyOrder(v.payload, v.propsOff, n)
		n = len(order)
	}
	runLen, bigBody := v.runLen()
	run := carve(a, &a.bytes, runLen, byteChunk)

	m.Header.MessageID = v.msgID
	m.Header.Topic = a.intern(v.TopicBytes())
	// Length-checked by ParseMessageView.
	m.Header.CorrelationID = cutString(&run, v.CorrelationIDBytes())
	m.Header.DeliveryMode = jms.DeliveryMode(v.mode)
	m.Header.Priority = int8(v.prio)
	m.Header.Timestamp = v.ts
	m.Header.Expiration = v.exp
	m.Header.TraceID = v.traceID

	if n > 0 {
		m.ReserveProperties(carve(a, &a.props, n, propChunk))
	}
	d := decoder{buf: v.payload, off: v.propsOff}
	for i := 0; i < n; i++ {
		if order != nil {
			d.off = order[i]
		}
		p := d.property()
		name := a.intern(p.Name)
		var err error
		switch p.Type {
		case jms.TypeBool:
			err = m.SetBoolProperty(name, p.Bool)
		case jms.TypeInt32:
			err = m.SetInt32Property(name, int32(p.Int))
		case jms.TypeInt64:
			err = m.SetInt64Property(name, p.Int)
		case jms.TypeFloat64:
			err = m.SetFloat64Property(name, p.F)
		case jms.TypeString:
			err = m.SetStringProperty(name, cutString(&run, p.Str))
		}
		if err != nil {
			return err
		}
	}
	if bigBody {
		m.Body = a.body(v.Body())
	} else if v.bodyLen > 0 {
		m.Body = cut(&run, v.Body())
	}
	return nil
}

// DecodeMessageArena materializes one message payload through the arena,
// equivalent to DecodeMessage.
func (a *MessageArena) DecodeMessageArena(payload []byte) (*jms.Message, error) {
	v, err := ParseMessageView(payload)
	if err != nil {
		return nil, err
	}
	return a.materialize(&v)
}

// DecodeDeliveryArena parses a MESSAGE payload like DecodeDelivery,
// materializing the message through the arena.
func (a *MessageArena) DecodeDeliveryArena(payload []byte) (subID, seq uint64, m *jms.Message, err error) {
	d := decoder{buf: payload}
	if subID, err = d.u64(); err != nil {
		return 0, 0, nil, err
	}
	if seq, err = d.u64(); err != nil {
		return 0, 0, nil, err
	}
	m, err = a.DecodeMessageArena(payload[d.off:])
	return subID, seq, m, err
}

// ParseFanout validates a MESSAGE_FANOUT payload as DecodeFanout does,
// appends the subscriptions it names to dst and returns a view of its
// message, which is valid while payload is. Once R = len(refs) is known the
// caller materializes the view into storage of its own
// (MessageArena.MaterializeInto): a subscriber decodes it straight into the
// slab that holds its R deliveries.
func ParseFanout(dst []DeliveryRef, payload []byte) ([]DeliveryRef, MessageView, error) {
	dst, off, err := appendFanoutRefs(dst, payload)
	if err != nil {
		return dst, MessageView{}, err
	}
	v, err := ParseMessageView(payload[off:])
	return dst, v, err
}

// AppendBatchMessages decodes a MSG_BATCH payload, materializing every
// message through the arena, and appends the results to dst (which the
// caller typically draws from a pooled carrier), grown once to the batch's
// validated count. It accepts and rejects exactly the payloads DecodeBatch
// does.
func (a *MessageArena) AppendBatchMessages(dst []*jms.Message, payload []byte) ([]*jms.Message, error) {
	d := decoder{buf: payload}
	n, err := d.u32()
	if err != nil {
		return dst, err
	}
	// Every message costs at least its 4-byte length prefix.
	if int64(n)*4 > int64(d.remain()) {
		return dst, fmt.Errorf("%w: batch count %d exceeds payload", ErrTruncated, n)
	}
	dst = slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		sz, err := d.u32()
		if err != nil {
			return dst, err
		}
		if d.remain() < int(sz) {
			return dst, ErrTruncated
		}
		m, err := a.DecodeMessageArena(d.buf[d.off : d.off+int(sz)])
		if err != nil {
			return dst, fmt.Errorf("wire: batch message %d: %w", i, err)
		}
		d.off += int(sz)
		dst = append(dst, m)
	}
	if d.remain() != 0 {
		return dst, fmt.Errorf("wire: %d trailing bytes in batch payload", d.remain())
	}
	return dst, nil
}
