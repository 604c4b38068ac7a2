package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"xivm/internal/server"
	"xivm/internal/xmark"
)

// The op stream. Everything the program receives is generated here: the
// XMark document, the update pairs and the read stream. The same seed gives
// byte-identical inputs (streamHash pins that in the tests).
//
// The seed picks which nodes the updates address, in which order, and where
// each read corpus starts. It does not pick the document: on documents of
// this size the XMark seed moves view cardinalities by up to a third (a
// tenth at 1MB), which moves every read latency and every per-read count by
// more than any bound, so a ten-seed spread would measure the generator and
// not the program. Each workload's document is therefore one fixed XMark
// instance of its size.
const docSeed = 2011

// benchViews is the view set every tenant carries: the paper's Q1 and Q2
// plus the ID-complete R1–R5 library xivmload -selfserve registers, which is
// what gives the rewrite planner single, stitch and intersect plans.
func benchViews() []server.ViewSpec {
	return []server.ViewSpec{
		{Name: "Q1", Pattern: xmark.View("Q1").String()},
		{Name: "Q2", Pattern: xmark.View("Q2").String()},
		{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
		{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
		{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
		{Name: "R4", Pattern: `//open_auction{ID}//initial{ID,val}`},
		{Name: "R5", Pattern: `//open_auction{ID}//increase{ID,val}`},
	}
}

// readView is the one view the view class reads: Q2 is maintained by the
// bidder family, so on mixed_rw its body changes under the reader.
const readView = "Q2"

// Update families, in the fixed 5:3:2 ratio famPattern spells out. Pair k
// takes family famPattern[k%10] and class pathClasses[k%5], so every window
// of ten pairs that starts at a multiple of ten holds the same (family,
// class) combinations: rounds of a multiple of ten pairs do the same work on
// rotating targets, and per-update counts do not depend on how many rounds
// fit into the measuring time.
const (
	famBidder    = "bidder"    // bidder under open_auction: moves Q2, R2, R3, R5
	famName      = "name"      // name under person: moves Q1, R1
	famUncovered = "uncovered" // xnote under category: no view covers it
)

var famPattern = [10]string{
	famBidder, famName, famBidder, famUncovered, famBidder,
	famName, famBidder, famUncovered, famBidder, famName,
}

// maxTargets caps the distinct id-addressed nodes a family rotates over; a
// small document offers fewer (see equalWidthIDs).
const maxTargets = 24

// pathClasses are the paper's five target-path classes (Appendix A). Each is
// a format over (collection path, element, id, two always-present child
// labels), so every class selects exactly the one id-addressed node.
var pathClasses = []struct{ name, format string }{
	{"L", `%[1]s/%[2]s[@id="%[3]s"]`},
	{"LB", `//%[2]s[@id="%[3]s"]`},
	{"A", `%[1]s/%[2]s[@id="%[3]s" and %[4]s]`},
	{"O", `%[1]s/%[2]s[@id="%[3]s"][%[4]s or %[5]s]`},
	{"AO", `%[1]s/%[2]s[@id="%[3]s" and (%[4]s or reserve) and (%[5]s or phone)]`},
}

// pair is one cancelling insert/delete: insert a small forest under one
// id-addressed node, then delete exactly that forest.
type pair struct {
	family string
	class  string
	insert string
	delete string
}

type familySpec struct {
	parent, elem, idPrefix string
	always                 [2]string // child labels every such element has
	forest                 string    // inserted forest; its root is unique under the target
	forestPath             string    // relative path selecting exactly that forest
}

var families = map[string]familySpec{
	famBidder: {
		parent: "/site/open_auctions", elem: "open_auction", idPrefix: "open_auction",
		always:     [2]string{"current", "itemref"},
		forest:     `<bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder>`,
		forestPath: "bidder[xbench]",
	},
	famName: {
		parent: "/site/people", elem: "person", idPrefix: "person",
		always:     [2]string{"emailaddress", "name"},
		forest:     `<name>Bench Mark<xbench/></name>`,
		forestPath: "name[xbench]",
	},
	famUncovered: {
		parent: "/site/categories", elem: "category", idPrefix: "category",
		always:     [2]string{"description", "name"},
		forest:     `<xnote><xtext>bench</xtext></xnote>`,
		forestPath: "xnote",
	},
}

// pairPeriod is the length of the cyclic pair sequence: 12 windows of ten
// revisit every target of every family.
const pairPeriod = 120

// genPairs builds the cyclic pair sequence. Every target id of a family has
// the same number of digits, so a statement's length — and with it the WAL
// bytes it costs — depends only on its family and class, not on the seed.
func genPairs(doc string, rng *rand.Rand) ([]pair, error) {
	targets := map[string][]int{}
	for _, fam := range []string{famBidder, famName, famUncovered} {
		ids := equalWidthIDs(strings.Count(doc, "<"+families[fam].elem+` id="`))
		if len(ids) == 0 {
			return nil, fmt.Errorf("document has no %s to address", families[fam].elem)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if len(ids) > maxTargets {
			ids = ids[:maxTargets]
		}
		targets[fam] = ids
	}
	next := map[string]int{}
	pairs := make([]pair, 0, pairPeriod)
	for k := 0; k < pairPeriod; k++ {
		fam := famPattern[k%len(famPattern)]
		spec := families[fam]
		class := pathClasses[k%len(pathClasses)]
		id := fmt.Sprintf("%s%d", spec.idPrefix, targets[fam][next[fam]%len(targets[fam])])
		next[fam]++
		target := fmt.Sprintf(class.format, spec.parent, spec.elem, id, spec.always[0], spec.always[1])
		pairs = append(pairs, pair{
			family: fam,
			class:  class.name,
			insert: "insert " + spec.forest + " into " + target,
			delete: "delete " + target + "/" + spec.forestPath,
		})
	}
	return pairs, nil
}

// equalWidthIDs returns the ids in [0,n) of the digit count most of them
// share: 0–9, 10–99 or 100–999, whichever group is largest.
func equalWidthIDs(n int) []int {
	var best []int
	for lo, hi := 0, 10; lo < n; lo, hi = hi, hi*10 {
		var ids []int
		for i := lo; i < hi && i < n; i++ {
			ids = append(ids, i)
		}
		if len(ids) > len(best) {
			best = ids
		}
	}
	return best
}

// Read classes.
const (
	classView    = "view"
	classWalk    = "xpath_walk"
	classRewrite = "xpath_rewrite"
	classHot     = "xpath_hot"
)

var readClasses = []string{classView, classWalk, classRewrite, classHot}

// walkCorpus is read with ?rewrite=0: the compiled tree walk, program cache
// hot. It spans the widened query surface xivmload exercises.
var walkCorpus = []string{
	`/site/people/person/name`,
	`/site/open_auctions/open_auction/bidder/increase`,
	`//open_auction//increase`,
	`//person[profile][homepage]/name`,
	`//open_auction[count(bidder)>=2]/initial`,
	`/site/open_auctions/open_auction/bidder[1]/increase`,
	`//bidder/following-sibling::current`,
	`//person[starts-with(@id,'person1')]`,
}

// rewriteBases are bridgeable queries the view library answers, one per
// plan shape. The rewrite class pads them with spaces into rewritePool
// distinct strings: the result cache keys on the raw string, so cycling a
// pool four times its 128 entries always misses and the planner always runs.
var rewriteBases = []string{
	`//open_auction//increase`,         // single view: R5
	`//open_auction//bidder//increase`, // stitch: R2 with R3
	`//open_auction[bidder]//initial`,  // intersect: R2 with R4
}

const (
	rewritePads = 180 // 15 leading (at least one, so no string equals a hot query) × 12 trailing space counts
	rewritePool = 3 * rewritePads
)

// hotCorpus are bridgeable queries repeated verbatim: after one priming
// read each is a result-cache hit until a write invalidates it. The last
// two have no view plan, so their cached result came from the tree walk.
var hotCorpus = []string{
	`/site/people/person/name`,
	`//bidder//increase`,
	`//open_auction//bidder//increase`,
	`//open_auction[bidder]//initial`,
	`//open_auction//initial`,
	`/site/open_auctions/open_auction/bidder/increase`,
	`//person[profile][homepage]/name`,
	`//open_auction[reserve]//initial`,
}

// readOp is one read request.
type readOp struct {
	class string
	query string // view name for classView, XPath otherwise
}

// readStream yields the read ops in a fixed interleaving: one op of each
// class in turn, each class cycling its own corpus from a seed-chosen start.
// A round of n ops per class with n a multiple of 24 (lcm of the corpus
// periods 8, 3, 8) is the same work every round, except that the rewrite
// class draws fresh paddings.
type readStream struct{ i, start int }

func (s *readStream) next() readOp {
	k, class := s.start+s.i/len(readClasses), readClasses[s.i%len(readClasses)]
	s.i++
	switch class {
	case classView:
		return readOp{class, readView}
	case classWalk:
		q := walkCorpus[k%len(walkCorpus)]
		return readOp{class, q}
	case classRewrite:
		p := k % rewritePool
		b := rewriteBases[p%len(rewriteBases)]
		pad := p / len(rewriteBases)
		return readOp{class, strings.Repeat(" ", 1+pad/12) + b + strings.Repeat(" ", pad%12)}
	default:
		q := hotCorpus[k%len(hotCorpus)]
		return readOp{class, q}
	}
}

// inputs is everything a run feeds the program.
type inputs struct {
	doc       string
	pairs     []pair
	readStart int // where the read corpora start cycling
}

func genInputs(seed int64, docBytes int) (*inputs, error) {
	doc := xmark.Generate(xmark.Config{TargetBytes: docBytes, Seed: docSeed})
	rng := rand.New(rand.NewSource(seed))
	pairs, err := genPairs(doc, rng)
	if err != nil {
		return nil, err
	}
	// A multiple of 24 keeps every round on the same corpus slice.
	return &inputs{doc: doc, pairs: pairs, readStart: 24 * rng.Intn(rewritePool)}, nil
}

// streamHash fingerprints the generated inputs: the document, every update
// statement and one full cycle of the read stream.
func (in *inputs) streamHash() string {
	h := sha256.New()
	h.Write([]byte(in.doc))
	for _, p := range in.pairs {
		fmt.Fprintf(h, "%s\n%s\n", p.insert, p.delete)
	}
	rs := readStream{start: in.readStart}
	for i := 0; i < rewritePool*len(readClasses); i++ {
		op := rs.next()
		fmt.Fprintf(h, "%s %s\n", op.class, op.query)
	}
	return hex.EncodeToString(h.Sum(nil))
}
