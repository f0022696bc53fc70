package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark itself recorded around a phase or a
// group of replay calls: the layer boundaries seen from outside the program.
// Spans of one run share the workload; Parent is the ID of the enclosing
// span, 0 at the root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory; they are written out once, when the
// run ends.
type spanLog struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, epoch: time.Now()}
}

// start opens a span under parent and returns its ID for end and for
// children.
func (l *spanLog) start(name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: l.workload, StartNs: int64(time.Since(l.epoch))})
	return id
}

func (l *spanLog) end(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNs = int64(time.Since(l.epoch))
}

// within runs fn inside a span.
func (l *spanLog) within(name string, parent int, fn func()) {
	id := l.start(name, parent)
	defer l.end(id)
	fn()
}

// write stores the spans as dir/trace-<workload>.json.
func (l *spanLog) write(dir string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+l.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
