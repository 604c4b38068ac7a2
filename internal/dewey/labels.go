package dewey

import (
	"strings"
	"sync"
	"sync/atomic"
)

// The label table gives every label the process meets a small code, which
// is what a key's frame names its label by (key.go), and what a document
// node names its label by (xmltree.Node): the paper's Compact Dynamic Dewey
// IDs are compact because a step costs its ordinal and a code, not its
// label's bytes. The table is process-wide and only grows, so a code means
// the same label in every key and node of every tenant for the process's
// lifetime; no code or key is ever stored or sent (a checkpoint holds the
// document and its ordinal stream, which restore re-labels).
//
// It is bounded by constants, not options: at most maxCodes codes, a code
// being at most two uvarint bytes, and labels of at most maxLabelLen bytes.
// A label the table refuses is written into its frames literally, after
// litCode. A refusal is final — the table never shrinks and a label never
// gets shorter — so a label that has a code had it before any node or key
// could have been built with it.
const (
	maxCodes    = 1 << 14
	maxLabelLen = 64
	litCode     = 0 // no label's code: the frame spells its label out
)

var table = struct {
	mu      sync.Mutex
	codes   map[string]uint16
	labels  atomic.Pointer[[]string] // labels[c] is code c's label; labels[litCode] is unused
	refused atomic.Int64             // how many times Code answered litCode
}{codes: map[string]uint16{}}

func init() {
	labels := make([]string, 1, 256)
	table.labels.Store(&labels)
}

// Code returns label's code in the label table, assigning the next one if
// the table has room for it, or litCode (0) if the table refuses the label:
// it is full, or the label too long. Builders of nodes call it once per node
// and build the node's ID from the code (ChildCode, AppendFrame).
func Code(label string) uint16 {
	table.mu.Lock()
	defer table.mu.Unlock()
	if c, ok := table.codes[label]; ok {
		return c
	}
	labels := *table.labels.Load()
	if len(label) > maxLabelLen || len(labels) == maxCodes {
		table.refused.Add(1)
		return litCode
	}
	// The table keeps its own copy: the caller's string may be a substring
	// of something much larger (a parser's buffer, a request body).
	label = strings.Clone(label)
	c := uint16(len(labels))
	// Appending in place writes past every published length, where no
	// reader indexes; a reader holding the old header never sees code c.
	labels = append(labels, label)
	table.labels.Store(&labels)
	table.codes[label] = c
	return c
}

// Lookup returns label's code, or litCode if the table has assigned it
// none; unlike Code, it never assigns one.
func Lookup(label string) uint16 {
	table.mu.Lock()
	defer table.mu.Unlock()
	return table.codes[label]
}

// LabelOf returns the label of a code the table assigned: one atomic load
// and an index, no lock. The string is the table's, one per distinct label.
func LabelOf(c uint16) string { return (*table.labels.Load())[c] }

// LabelStats reports how many codes the table has assigned and how many
// times it has refused a label since the process started.
func LabelStats() (codes, refused int) {
	return len(*table.labels.Load()) - 1, int(table.refused.Load())
}
