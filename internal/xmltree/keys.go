package xmltree

import "xivm/internal/dewey"

// keyChain gives the nodes of a document their ID keys as they are placed
// in preorder — by a parse, an inserted forest's copy and ApplyOrds — one
// string per first-child chain: a node, its first child, that child's first
// child and so on down to a leaf. A node's key is a prefix of its first
// child's, so the chain's deepest key, built once, holds every key above it
// on the chain, each a prefix of that one string. A deleted member of a
// chain leaves its frames in the string the survivors hold, never more
// bytes than the chain's keys took apart.
//
// The buffers are scratch: a writer's Document keeps one for its mutators
// — a parse hands its own to the document it builds — and an epoch none.
// While a bulk build places nodes (a parse, ApplyOrds), the chains' strings
// are cut from a key slab (slab.go), which endBulk lets go: a key given
// after it, an inserted forest's, is a string of its own and pins no chunk.
type keyChain struct {
	path   []byte  // the key of the node placed last
	parked []*Node // the chain down to it, root first, waiting for its string
	bulk   bool    // a bulk build is placing nodes: keys come from slab
	slab   []byte  // the key slab's current chunk
}

// endBulk ends a bulk build: the key slab is let go.
func (kc *keyChain) endBulk() { kc.bulk, kc.slab = false, nil }

// place gives n the key of parent's child whose label has code c — label,
// read when c is 0, spells a refused one out — and ordinal ord; a nil
// parent makes n a root. Until flush, or the placing of a node that is not
// n's first child, n is parked: its ID is not to be read.
func (kc *keyChain) place(n, parent *Node, c uint16, label string, ord dewey.Ord) {
	if k := len(kc.parked); k == 0 || kc.parked[k-1] != parent {
		kc.flush()
		kc.path = kc.path[:0]
		if parent != nil {
			kc.path = append(kc.path, parent.ID().Key()...)
		}
	}
	kc.path = dewey.AppendFrame(kc.path, c, label, ord)
	n.key, n.keyLen = nil, uint32(len(kc.path))
	kc.parked = append(kc.parked, n)
}

// flush gives the parked chain its string, the key of its deepest node.
// The placers call it before anything reads the keys they gave.
func (kc *keyChain) flush() {
	if len(kc.parked) == 0 {
		return
	}
	var key string
	if kc.bulk {
		key = slabString(&kc.slab, kc.path)
	} else {
		key = string(kc.path)
	}
	for _, n := range kc.parked {
		n.SetID(dewey.FromKey(key[:n.keyLen]))
	}
	clear(kc.parked)
	kc.parked = kc.parked[:0]
}
