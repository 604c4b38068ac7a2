package xmltree

// Byte slabs. A document's parse (ParseString, Parse) cuts its text and
// attribute values, and its first-child chains' key strings (keys.go), from
// two append-only byte slabs rather than allocating each on its own: each
// chunk is 4 KB, filled in preorder, and lives as long as any string cut
// from it (slabString, node.go). ApplyOrds keys its nodes from a key slab
// of its own while it runs. The nodes and their child arrays are allocated
// one by one, as is everything a writer makes later — a statement's forest,
// a spine copy, an inserted forest's values and keys — so no update pins a
// chunk.
//
// A chunk holds no pointers, so it pins only its own bytes: a deleted
// subtree's values and keys, cut in preorder, free their whole chunks and
// leave at most the two boundary chunks of each slab to live neighbours.
// What the slabs pin is at most the bytes the parse cut, and no update adds
// to it (DESIGN §8).

const (
	// slabBytes is a value or key chunk's size; it holds no pointers, so it
	// has no malloc header and fills the 4 KB size class.
	slabBytes = 4096
	// slabOwn is the longest value or key a chunk takes: a longer one gets an
	// allocation of its own (slabString), so a chunk is left at most this
	// much unused when the next string does not fit.
	slabOwn = 1024
)
