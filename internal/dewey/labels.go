package dewey

import (
	"strings"
	"sync"
	"sync/atomic"
)

// The label table gives every label the process meets a small code, which
// is what a key's frame names its label by (key.go): the paper's Compact
// Dynamic Dewey IDs are compact because a step costs its ordinal and a code,
// not its label's bytes. The table is process-wide and only grows, so a code
// means the same label in every key of every tenant for the process's
// lifetime; no code or key is ever stored or sent (a checkpoint's IDs go
// through Encode's per-snapshot Dict).
//
// It is bounded by constants, not options: at most maxCodes codes, a code
// being at most two uvarint bytes, and labels of at most maxLabelLen bytes.
// A label the table refuses is written into its frames literally, after
// litCode.
const (
	maxCodes    = 1 << 14
	maxLabelLen = 64
	litCode     = 0 // no label's code: the frame spells its label out
)

var table = struct {
	mu     sync.Mutex
	codes  map[string]uint32
	labels atomic.Pointer[[]string] // labels[c] is code c's label; labels[litCode] is unused
}{codes: map[string]uint32{}}

func init() {
	labels := make([]string, 1, 256)
	table.labels.Store(&labels)
}

// code returns label's code, assigning the next one if the table has room
// for it, or litCode if it has not.
func code(label string) uint32 {
	table.mu.Lock()
	defer table.mu.Unlock()
	if c, ok := table.codes[label]; ok {
		return c
	}
	labels := *table.labels.Load()
	if len(label) > maxLabelLen || len(labels) == maxCodes {
		return litCode
	}
	// The table keeps its own copy: the caller's string may be a substring
	// of something much larger (a parser's buffer, a request body).
	label = strings.Clone(label)
	c := uint32(len(labels))
	// Appending in place writes past every published length, where no
	// reader indexes; a reader holding the old header never sees code c.
	labels = append(labels, label)
	table.labels.Store(&labels)
	table.codes[label] = c
	return c
}

// labelOf returns the label of a code the table assigned: one atomic load
// and an index, no lock.
func labelOf(c uint64) string { return (*table.labels.Load())[c] }

// Intern returns the table's copy of label — one string per distinct label
// however many nodes carry it — or label itself if the table refuses it.
// Parsers store what it returns.
func Intern(label string) string {
	if c := code(label); c != litCode {
		return labelOf(uint64(c))
	}
	return label
}
