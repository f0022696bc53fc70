// Package jms implements the message model of the Java Messaging Service as
// used by the paper: a message consists of a fixed header section (including
// the 128-byte correlation ID), a user-defined property section with typed
// values, and an opaque payload.
//
// The model follows the JMS 1.1 specification closely enough that the two
// filter families studied in the paper — correlation-ID filters and
// application-property filters (message selectors) — operate on the same
// message anatomy as on a real JMS server.
package jms

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// MaxCorrelationIDLen is the maximum length of a correlation ID. The paper
// describes correlation IDs as "ordinary 128 byte strings".
const MaxCorrelationIDLen = 128

// DeliveryMode selects the JMS delivery mode of a message.
type DeliveryMode uint8

// Delivery modes. The paper studies the persistent but non-durable mode, so
// Persistent is the default used throughout this repository.
const (
	// NonPersistent messages may be lost on broker failure.
	NonPersistent DeliveryMode = iota + 1
	// Persistent messages are delivered reliably and in order.
	Persistent
)

// String returns the JMS name of the delivery mode.
func (m DeliveryMode) String() string {
	switch m {
	case NonPersistent:
		return "NON_PERSISTENT"
	case Persistent:
		return "PERSISTENT"
	default:
		return "DeliveryMode(" + strconv.Itoa(int(m)) + ")"
	}
}

// Valid reports whether m is a known delivery mode.
func (m DeliveryMode) Valid() bool {
	return m == NonPersistent || m == Persistent
}

// PropertyType enumerates the JMS property value types supported in the
// user-defined property header section.
type PropertyType uint8

// Supported property types, mirroring the JMS typed property accessors.
const (
	TypeBool PropertyType = iota + 1
	TypeInt32
	TypeInt64
	TypeFloat64
	TypeString
)

// String returns a human-readable name of the property type.
func (t PropertyType) String() string {
	switch t {
	case TypeBool:
		return "bool"
	case TypeInt32:
		return "int32"
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	default:
		return "PropertyType(" + strconv.Itoa(int(t)) + ")"
	}
}

// Property is a single typed value in the message property section.
type Property struct {
	Type PropertyType
	B    bool
	I    int64
	F    float64
	S    string
}

// Errors reported by the message model.
var (
	// ErrCorrelationIDTooLong is returned when a correlation ID exceeds
	// MaxCorrelationIDLen bytes.
	ErrCorrelationIDTooLong = errors.New("jms: correlation ID exceeds 128 bytes")
	// ErrBadPropertyName is returned for property names that are not valid
	// JMS identifiers.
	ErrBadPropertyName = errors.New("jms: invalid property name")
	// ErrNoSuchProperty is returned when a typed accessor misses.
	ErrNoSuchProperty = errors.New("jms: no such property")
	// ErrPropertyType is returned when a typed accessor finds a value of a
	// different type.
	ErrPropertyType = errors.New("jms: property has different type")
)

// Header carries the fixed JMS header fields relevant to this study. The
// times are int64 Unix nanoseconds, 0 meaning unset — what the wire
// encodes — and the small fields are bytes, so a Message is 128 bytes.
type Header struct {
	// MessageID uniquely identifies the message within a broker.
	MessageID uint64
	// CorrelationID is the 128-byte application correlation string matched
	// by correlation-ID filters.
	CorrelationID string
	// Topic names the destination topic.
	Topic string
	// DeliveryMode is Persistent for all experiments in the paper.
	DeliveryMode DeliveryMode
	// Priority is the JMS priority (0..9); unused by the model but carried
	// for completeness.
	Priority int8
	// Timestamp is the publisher-side send time in Unix nanoseconds
	// (time.Time.UnixNano); 0 means unset.
	Timestamp int64
	// Expiration is the absolute expiry in Unix nanoseconds; 0 means never.
	Expiration int64
	// TraceID is an optional end-to-end trace identifier carried through
	// the wire protocol and preserved across replication; zero means
	// untraced. Load tools stamp sampled messages with it to measure
	// publish→deliver latency without touching Timestamp.
	TraceID uint64
}

// PropertyEntry is one named value of a message's property section. Its
// fields are private to this package: code outside it only ever allocates
// entries as backing storage for ReserveProperties.
type PropertyEntry struct {
	name  string
	value Property
}

// Message is a JMS message: header, property section, payload.
//
// The property section is a slice of entries kept sorted by name — a JMS
// message carries a handful of properties, so a short binary search beats a
// hash probe, the sorted order is the wire order, and the section costs one
// allocation (none when its storage was reserved, see ReserveProperties).
// Setting names in ascending order appends; any other order moves the
// entries behind the new one, so bulk loaders sort first.
//
// A Message is 128 bytes, two cache lines and a size class of its own, and
// a PropertyEntry 56: every replica, view slab and arena chunk carries
// them, so a field added here costs on every message (TestMessageLayout).
type Message struct {
	Header     Header
	properties []PropertyEntry
	// Body is the opaque payload. The paper's default body size is 0 bytes
	// (all information in the headers).
	Body []byte
	// shared is non-zero while the property section may be aliased by a
	// copy-on-write view (see Shared). The first mutation through a setter
	// copies the section before writing, so views never observe it.
	shared uint32
}

// NewMessage returns an empty persistent message for the given topic.
func NewMessage(topic string) *Message {
	return &Message{
		Header: Header{
			Topic:        topic,
			DeliveryMode: Persistent,
			Priority:     4, // JMS default priority
		},
	}
}

// SetCorrelationID sets the correlation ID, enforcing the 128-byte limit.
func (m *Message) SetCorrelationID(id string) error {
	if len(id) > MaxCorrelationIDLen {
		return fmt.Errorf("%w: %d bytes", ErrCorrelationIDTooLong, len(id))
	}
	m.Header.CorrelationID = id
	return nil
}

// validPropertyName reports whether name is a valid JMS identifier: a
// letter, '_' or '$' followed by letters, digits, '_' or '$'.
func validPropertyName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		isLetter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == '$'
		isDigit := r >= '0' && r <= '9'
		if i == 0 && !isLetter {
			return false
		}
		if !isLetter && !isDigit {
			return false
		}
	}
	return true
}

// search returns the position of name in the sorted property section and
// whether it is present; when absent, the position is where it belongs. A
// binary search: a name past the end — every set of a decoder replaying the
// wire's ascending order — costs log n compares and no move.
func (m *Message) search(name string) (int, bool) {
	lo, hi := 0, len(m.properties)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.properties[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.properties) && m.properties[lo].name == name
}

func (m *Message) setProperty(name string, p Property) error {
	if !validPropertyName(name) {
		return fmt.Errorf("%w: %q", ErrBadPropertyName, name)
	}
	if atomic.LoadUint32(&m.shared) != 0 {
		// Copy-on-write: the section may be read concurrently through
		// Shared views, so detach before the first mutation.
		props := make([]PropertyEntry, len(m.properties), len(m.properties)+1)
		copy(props, m.properties)
		m.properties = props
		atomic.StoreUint32(&m.shared, 0)
	}
	i, found := m.search(name)
	if found {
		m.properties[i].value = p
		return nil
	}
	if m.properties == nil {
		m.properties = make([]PropertyEntry, 0, 4)
	}
	m.properties = append(m.properties, PropertyEntry{})
	copy(m.properties[i+1:], m.properties[i:])
	m.properties[i] = PropertyEntry{name: name, value: p}
	return nil
}

// ReserveProperties replaces the property section with an empty one backed
// by buf: setters fill it in place, without allocating, until more than
// cap(buf) distinct names are set. The message takes ownership of buf's
// spare capacity — the caller must not touch it again. The wire decoder
// uses it to carve the sections of many messages from one allocation.
func (m *Message) ReserveProperties(buf []PropertyEntry) {
	m.properties = buf[:0]
	atomic.StoreUint32(&m.shared, 0)
}

// SetBoolProperty sets a boolean property.
func (m *Message) SetBoolProperty(name string, v bool) error {
	return m.setProperty(name, Property{Type: TypeBool, B: v})
}

// SetInt32Property sets a 32-bit integer property.
func (m *Message) SetInt32Property(name string, v int32) error {
	return m.setProperty(name, Property{Type: TypeInt32, I: int64(v)})
}

// SetInt64Property sets a 64-bit integer property.
func (m *Message) SetInt64Property(name string, v int64) error {
	return m.setProperty(name, Property{Type: TypeInt64, I: v})
}

// SetFloat64Property sets a floating-point property.
func (m *Message) SetFloat64Property(name string, v float64) error {
	return m.setProperty(name, Property{Type: TypeFloat64, F: v})
}

// SetStringProperty sets a string property.
func (m *Message) SetStringProperty(name string, v string) error {
	return m.setProperty(name, Property{Type: TypeString, S: v})
}

// Property returns the raw property and whether it exists.
func (m *Message) Property(name string) (Property, bool) {
	if i, ok := m.search(name); ok {
		return m.properties[i].value, true
	}
	return Property{}, false
}

// BoolProperty returns a boolean property.
func (m *Message) BoolProperty(name string) (bool, error) {
	p, ok := m.Property(name)
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrNoSuchProperty, name)
	}
	if p.Type != TypeBool {
		return false, fmt.Errorf("%w: %q is %v", ErrPropertyType, name, p.Type)
	}
	return p.B, nil
}

// Int64Property returns an integer property (either 32- or 64-bit).
func (m *Message) Int64Property(name string) (int64, error) {
	p, ok := m.Property(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchProperty, name)
	}
	if p.Type != TypeInt32 && p.Type != TypeInt64 {
		return 0, fmt.Errorf("%w: %q is %v", ErrPropertyType, name, p.Type)
	}
	return p.I, nil
}

// Float64Property returns a floating-point property.
func (m *Message) Float64Property(name string) (float64, error) {
	p, ok := m.Property(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchProperty, name)
	}
	if p.Type != TypeFloat64 {
		return 0, fmt.Errorf("%w: %q is %v", ErrPropertyType, name, p.Type)
	}
	return p.F, nil
}

// StringProperty returns a string property.
func (m *Message) StringProperty(name string) (string, error) {
	p, ok := m.Property(name)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoSuchProperty, name)
	}
	if p.Type != TypeString {
		return "", fmt.Errorf("%w: %q is %v", ErrPropertyType, name, p.Type)
	}
	return p.S, nil
}

// PropertyNames returns the sorted names of all properties.
func (m *Message) PropertyNames() []string {
	if len(m.properties) == 0 {
		return nil
	}
	names := make([]string, len(m.properties))
	for i := range m.properties {
		names[i] = m.properties[i].name
	}
	return names
}

// NumProperties returns the number of properties.
func (m *Message) NumProperties() int { return len(m.properties) }

// PropertyAt returns the i-th property in name order, 0 <= i <
// NumProperties: the allocation-free way to walk the section.
func (m *Message) PropertyAt(i int) (string, Property) {
	e := &m.properties[i]
	return e.name, e.value
}

// ClearProperties removes all properties.
func (m *Message) ClearProperties() {
	m.properties = nil
	atomic.StoreUint32(&m.shared, 0)
}

// SetBody replaces the payload. Replacing the slice (rather than writing
// into Body) keeps existing Shared views intact: they retain the previous
// backing array.
func (m *Message) SetBody(b []byte) { m.Body = b }

// Clone returns a deep copy of the message. The broker replicates a message
// R times when dispatching it to R matching subscribers; Clone is the unit
// of that replication.
func (m *Message) Clone() *Message {
	c := &Message{Header: m.Header}
	if len(m.properties) > 0 {
		c.properties = append([]PropertyEntry(nil), m.properties...)
	}
	if m.Body != nil {
		c.Body = make([]byte, len(m.Body))
		copy(c.Body, m.Body)
	}
	return c
}

// Shared returns a copy-on-write view of the message: a new Message whose
// header is an independent value copy but whose property section and body
// alias the original. It is the zero-copy unit of replication on the fast
// dispatch engine — all R matching subscribers can be handed views of one
// received message without the R−1 deep Clone copies.
//
// Safety contract: after Shared is called, mutating either the original or
// a view through the property setters (SetStringProperty etc.) or
// ClearProperties copies the property section first, so holders of other views
// never observe the change and concurrent readers do not race. Body bytes
// are aliased and must be treated as immutable; replace the payload with
// SetBody instead of writing into the Body slice. Shared itself must only
// be called once the message has been handed to the broker (the dispatcher
// is its sole owner at that point), mirroring Publish's contract that the
// caller stops mutating after publishing.
func (m *Message) Shared() *Message {
	v := make([]Message, 1)
	m.SharedInto(v)
	return &v[0]
}

// SharedInto fills views with copy-on-write views of m, each as Shared would
// return it, so that R views cost the one allocation of the caller's slice
// instead of R. The views live in that slice: holding any one of them keeps
// the whole slice reachable. The safety contract is Shared's.
func (m *Message) SharedInto(views []Message) {
	atomic.StoreUint32(&m.shared, 1)
	for i := range views {
		views[i] = Message{
			Header:     m.Header,
			properties: m.properties,
			Body:       m.Body,
			shared:     1,
		}
	}
}

// Expired reports whether the message has expired at time now.
func (m *Message) Expired(now time.Time) bool {
	return m.Header.Expiration != 0 && now.UnixNano() > m.Header.Expiration
}

// Validate checks the message invariants enforced by the broker on receive.
func (m *Message) Validate() error {
	if m.Header.Topic == "" {
		return errors.New("jms: message has no topic")
	}
	if len(m.Header.CorrelationID) > MaxCorrelationIDLen {
		return fmt.Errorf("%w: %d bytes", ErrCorrelationIDTooLong, len(m.Header.CorrelationID))
	}
	if !m.Header.DeliveryMode.Valid() {
		return fmt.Errorf("jms: invalid delivery mode %d", int(m.Header.DeliveryMode))
	}
	if m.Header.Priority < 0 || m.Header.Priority > 9 {
		return fmt.Errorf("jms: priority %d out of range [0,9]", m.Header.Priority)
	}
	for i := range m.properties {
		if name := m.properties[i].name; !validPropertyName(name) {
			return fmt.Errorf("%w: %q", ErrBadPropertyName, name)
		}
	}
	return nil
}

// Size returns the approximate wire size of the message in bytes: header
// fields plus properties plus body. Used by the metrics subsystem to track
// network utilization the way the paper's testbed monitored it with sar.
func (m *Message) Size() int {
	size := 8 /* id */ + len(m.Header.CorrelationID) + len(m.Header.Topic) + 1 /* mode */ + 1 /* prio */ + 16 /* timestamps */ + 8 /* trace ID */
	for i := range m.properties {
		p := &m.properties[i].value
		size += len(m.properties[i].name) + 1
		switch p.Type {
		case TypeBool:
			size++
		case TypeInt32:
			size += 4
		case TypeInt64, TypeFloat64:
			size += 8
		case TypeString:
			size += len(p.S)
		}
	}
	return size + len(m.Body)
}
