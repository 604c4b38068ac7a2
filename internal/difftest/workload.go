// Package difftest is a differential correctness harness: randomized
// XMark-style documents and update workloads run through every maintenance
// path the engine offers — eager propagation under each materialization
// policy, statement batches through the planner, both pruning ablations,
// and the IVMA node-at-a-time competitor — asserting after every statement
// (or batch) that each maintained view is byte-identical to a fresh
// evaluation over the mutated document, and that the canonical relations
// match a store rebuilt from scratch. Failing workloads shrink to minimal counterexamples, and Go
// native fuzz targets drive the same harness from arbitrary bytes.
package difftest

import "xivm/internal/xmark"

// maxStatements caps workload length so fuzz inputs stay cheap to check.
const maxStatements = 24

// Workload is one reproducible differential test case: a document seed and
// person count for xmark.GenerateSmall plus a sequence of update
// statements. Everything a counterexample needs fits in a short literal.
type Workload struct {
	DocSeed uint64
	// People, when above 0, is the wide document shape: /site/people holds
	// that many persons, where the seed's document draws 3–14. Around 64,
	// the children a leaf of a child list holds, the vocabulary's person
	// inserts and deletes take that list from one slice to a tree of them
	// and back.
	People     int
	Statements []string
}

// vocabulary is the closed statement set workloads draw from: inserts,
// deletes and replaces over weighted XMark target paths, including the edge
// cases the maintenance paths historically mishandled — shallow root-level
// deletes (children of the document root) and replace statements, whose
// delete-then-insert stages reuse freed Dewey ordinals within one batch.
var vocabulary = []string{
	// Insertions.
	`for $x in /site/people/person insert <phone>+33 555 0199</phone>`,
	`for $x in /site/people/person[phone] insert <homepage>http://example.net/~new</homepage>`,
	`insert <person id="personX"><name>Nova Quinn</name><homepage>http://example.net/~nova</homepage></person> into /site/people`,
	`for $x in /site/open_auctions/open_auction insert <bidder><date>01/01/2011</date><personref person="person1"/><increase>4.50</increase></bidder>`,
	`for $x in /site/open_auctions/open_auction[reserve] insert <privacy>Yes</privacy>`,
	`for $x in /site/regions/namerica insert <item id="itemX"><location>France</location><quantity>1</quantity><name>gold clock</name><payment>Cash</payment><description><text>mint boxed clock</text></description></item>`,
	`for $x in //item[description] insert <mailbox><mail><from>Ann</from><to>Bob</to><date>01/21/2011</date></mail></mailbox>`,
	`for $x in /site/people/person[profile] insert <creditcard>1111 2222 3333 4444</creditcard>`,
	`insert <open_auction id="open_auctionX"><initial>5.00</initial><current>10.00</current><quantity>1</quantity><type>Regular</type></open_auction> into /site/open_auctions`,
	`for $x in //bidder insert <increase>6.00</increase>`,

	// Deletions, from leaf-level to shallow. `/site/people` and
	// `/site/catgraph` are root-level deletes: their parent is the document
	// root, an edge for the refresh of the touched ancestors.
	`delete /site/people/person/phone`,
	`delete /site/people/person[homepage]`,
	`delete /site/open_auctions/open_auction/bidder`,
	`delete /site/open_auctions/open_auction[privacy]/bidder`,
	`delete /site/regions/*/item/description`,
	`delete /site/regions/namerica/item`,
	`delete //item[mailbox]`,
	`delete /site/people/person[address and (phone or homepage)]`,
	`delete /site/closed_auctions/closed_auction`,
	`delete /site/people`,
	`delete /site/catgraph`,
	`delete /site/open_auctions/open_auction[bidder or privacy]`,

	// Replaces: delete stage + insert stage under the deleted nodes'
	// parents, applied as one statement.
	`replace /site/people/person/name with <name>Replaced Name</name>`,
	`replace /site/open_auctions/open_auction/bidder/increase with <increase>9.00</increase>`,
	`replace /site/regions/namerica/item/name with <name>vintage compass</name>`,
	`replace //person[homepage]/homepage with <homepage>http://example.org/new</homepage>`,
	`replace /site/regions/europe/item with <item id="itemR"><location>Italy</location><quantity>2</quantity><name>rare stamp</name><payment>Cash</payment></item>`,
	`replace /site/people/person[creditcard]/creditcard with <creditcard>9999 8888 7777 6666</creditcard>`,
}

// wrng is the same xorshift generator the xmark package uses, duplicated so
// workloads stay reproducible independently of generator-internal draws.
type wrng struct{ s uint64 }

func (r *wrng) next() uint64 {
	if r.s == 0 {
		r.s = 0x9e3779b97f4a7c15
	}
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *wrng) intn(n int) int { return int(r.next() % uint64(n)) }

// NewWorkload derives a deterministic workload from a seed: a small
// document and n statements drawn from the vocabulary (capped at
// maxStatements). Same seed, same workload.
func NewWorkload(seed uint64, n int) Workload {
	if n > maxStatements {
		n = maxStatements
	}
	r := &wrng{s: seed}
	w := Workload{DocSeed: uint64(r.intn(1 << 16))}
	for i := 0; i < n; i++ {
		w.Statements = append(w.Statements, vocabulary[r.intn(len(vocabulary))])
	}
	return w
}

// wideMark, as the first of at least three bytes, makes Decode read the
// wide document shape: the document seed and the person count follow it.
const wideMark = 0xff

// Decode maps arbitrary bytes onto a workload, totally: the first byte
// selects the document seed, every following byte selects one vocabulary
// statement. A first byte of wideMark is followed by the seed and a byte
// that sets People to 60–200. Any input decodes; fuzzing explores the
// statement-sequence space without ever producing an unparseable statement.
func Decode(data []byte) Workload {
	w := Workload{DocSeed: 1}
	if len(data) == 0 {
		return w
	}
	w.DocSeed = uint64(data[0])
	rest := data[1:]
	if data[0] == wideMark && len(rest) >= 2 {
		w.DocSeed, w.People, rest = uint64(rest[0]), 60+int(rest[1])%141, rest[2:]
	}
	if len(rest) > maxStatements {
		rest = rest[:maxStatements]
	}
	for _, b := range rest {
		w.Statements = append(w.Statements, vocabulary[int(b)%len(vocabulary)])
	}
	return w
}

// Doc renders the workload's document source.
func (w Workload) Doc() string { return xmark.GenerateSmall(w.DocSeed, w.People) }
