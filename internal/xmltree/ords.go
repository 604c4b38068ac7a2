package xmltree

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"

	"xivm/internal/dewey"
)

// Structural-ID durability. Serializing a document as XML loses its Dewey
// ordinals: parsing assigns dense sequential ordinals, while a live document
// that has seen updates carries fractional ones (dewey.Between). Node IDs
// are part of the observable state — view rows and XPath responses expose
// them — so a process restored from a serialized document would answer
// queries with different IDs than the live process it checkpointed, breaking
// the byte-identical convergence replication promises. The ordinal stream
// below rides alongside the XML: a preorder walk of every node's own sibling
// ordinal, enough to reconstruct the exact live ID space on top of a fresh
// parse (an ID is just the root-to-node label path zipped with these
// ordinals).

// EncodeOrds serializes the document's ordinal assignment: for each node in
// preorder, its own sibling ordinal as a uvarint component vector. Combined
// with the serialized XML (which fixes structure, labels and order) this
// reconstructs every node's exact structural ID.
func (d *Document) EncodeOrds() []byte {
	var out bytes.Buffer
	d.WriteOrds(&out) // a bytes.Buffer does not fail
	return out.Bytes()
}

// WriteOrds streams what EncodeOrds returns: w (itself when it is a
// *bufio.Writer, which is then flushed) sees the stream a buffer at a time.
func (d *Document) WriteOrds(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var num [binary.MaxVarintLen64]byte
	var ord dewey.Ord // one buffer for every node's ordinal
	var walk func(n *Node)
	walk = func(n *Node) {
		ord = n.appendOwnOrd(ord[:0])
		bw.Write(binary.AppendUvarint(num[:0], uint64(len(ord))))
		for _, c := range ord {
			bw.Write(binary.AppendUvarint(num[:0], c))
		}
		for k := n.Kids(); k.Next(); {
			walk(k.Node())
		}
	}
	walk(d.Root)
	return bw.Flush()
}

// ApplyOrds reassigns every node's structural ID from an ordinal stream
// produced by EncodeOrds on a structurally identical document (same nodes,
// same order). The freshly parsed document's sequential ordinals are
// replaced by the recorded ones, so the restored ID space is byte-identical
// to the one the stream was taken from. The keys are cut from a key slab,
// as a parse's are, and every ordinal is read into one buffer, which the
// key chain copies.
func (d *Document) ApplyOrds(data []byte) error {
	pos := 0
	var ord dewey.Ord
	next := func() (dewey.Ord, error) {
		m, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, errors.New("xmltree: truncated ordinal length")
		}
		pos += k
		if m > uint64(len(data)-pos) {
			return nil, errors.New("xmltree: implausible ordinal length")
		}
		ord = ord[:0]
		for j := uint64(0); j < m; j++ {
			c, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, errors.New("xmltree: truncated ordinal component")
			}
			pos += k
			ord = append(ord, c)
		}
		return ord, nil
	}
	if d.frozen || d.gen != 0 {
		// IDs are rewritten in place, on nodes an epoch would share.
		return errors.New("xmltree: ApplyOrds on a published document")
	}
	var walk func(n, parent *Node) error
	walk = func(n, parent *Node) error {
		ord, err := next()
		if err != nil {
			return err
		}
		// Roots always carry the NewRoot ordinal; a stream that says
		// otherwise was not taken from a structurally identical document.
		if parent == nil && !ord.Equal(n.ID().Step(0).Ord) {
			return errors.New("xmltree: ordinal stream disagrees on the root")
		}
		d.keys.place(n, parent, n.code, n.Label(), ord)
		// Not the cursor: it steps from leaf to leaf by key, and the keys
		// of the children behind it are the rewritten ones.
		return eachKid(n, func(c *Node) error { return walk(c, n) })
	}
	d.keys.bulk = true
	err := walk(d.Root, nil)
	d.keys.flush()
	d.keys.endBulk()
	if err != nil {
		return err
	}
	if pos != len(data) {
		return errors.New("xmltree: ordinal stream longer than the document")
	}
	// Every ID changed: nothing derived from the old ones survives.
	d.resetImage()
	return nil
}
