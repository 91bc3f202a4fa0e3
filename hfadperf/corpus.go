package main

import (
	"fmt"
	"sort"

	"repro/hfad"
	"repro/internal/fulltext"
	"repro/internal/workload"
)

// Tag shapes given to object i. Every object gets a broad group and a
// day; two in three also get a selective tag.
const (
	numGroups = 8    // g:N, each about 1/8 of the population
	numDays   = 1000 // day:NNNN, range-queried
)

// corpus generates the objects of a workload from its seed and knows,
// for every object it generated, the names and bytes it should have.
type corpus struct {
	seed  uint64
	docs  []workload.Document
	terms [][]string // tokens of docs[i], deduplicated
	sels  int        // distinct selective tags
}

func newCorpus(seed uint64, docs, sels int) *corpus {
	c := &corpus{
		seed: seed,
		docs: workload.DocCorpus(seed, workload.DocCorpusConfig{Docs: docs, WordsPer: 16}),
		sels: sels,
	}
	c.terms = make([][]string, len(c.docs))
	for i, d := range c.docs {
		seen := make(map[string]bool)
		for _, t := range fulltext.Tokenize(d.Text) {
			if !seen[t] {
				seen[t] = true
				c.terms[i] = append(c.terms[i], t)
			}
		}
	}
	return c
}

// mix is splitmix64: a cheap seeded hash from object index to choices.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (c *corpus) h(i, salt int) uint64 { return mix(c.seed ^ uint64(i)<<8 ^ uint64(salt)) }

func (c *corpus) doc(i int) int      { return int(c.h(i, 1) % uint64(len(c.docs))) }
func (c *corpus) body(i int) []byte  { return []byte(c.docs[c.doc(i)].Text) }
func groupTag(g int) string          { return fmt.Sprintf("g:%d", g) }
func dayTag(d int) string            { return fmt.Sprintf("day:%04d", d) }
func selTag(s int) string            { return fmt.Sprintf("s:%05d", s) }
func (c *corpus) hasSel(i int) bool  { return c.h(i, 4)%3 != 0 }
func (c *corpus) group(i int) string { return groupTag(int(c.h(i, 2) % numGroups)) }

// tags returns the UDEF values object i is named by.
func (c *corpus) tags(i int) []string {
	t := []string{c.group(i), dayTag(int(c.h(i, 3) % numDays))}
	if c.hasSel(i) {
		t = append(t, selTag(int(c.h(i, 5)%uint64(c.sels))))
	}
	return t
}

// oracle maps names to the sorted OIDs that carry them, built from the
// objects the corpus generated and the store acknowledged.
type oracle struct {
	c      *corpus
	udef   map[string][]hfad.OID
	text   map[string][]hfad.OID // fulltext token -> OIDs (indexed objects)
	index  map[hfad.OID]int      // OID -> object index
	sorted bool
}

func newOracle(c *corpus) *oracle {
	return &oracle{c: c, udef: map[string][]hfad.OID{}, text: map[string][]hfad.OID{}, index: map[hfad.OID]int{}}
}

// ack records that object i was committed as oid.
func (o *oracle) ack(i int, oid hfad.OID, indexed bool) {
	o.index[oid] = i
	for _, t := range o.c.tags(i) {
		o.udef[t] = append(o.udef[t], oid)
	}
	if indexed {
		for _, t := range o.c.terms[o.c.doc(i)] {
			o.text[t] = append(o.text[t], oid)
		}
	}
	o.sorted = false
}

func (o *oracle) sort() {
	if o.sorted {
		return
	}
	for _, m := range []map[string][]hfad.OID{o.udef, o.text} {
		for _, ids := range m {
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		}
	}
	o.sorted = true
}

// qshape is a query shape of the query workload.
type qshape uint8

const (
	shapeAnd qshape = iota
	shapeRange
	shapeFulltext
	shapePageWalk
	numShapes
)

var shapeNames = [numShapes]string{"and", "range", "fulltext", "page_walk"}

// qspec is one generated query; the store runs query() and the oracle
// computes expect().
type qspec struct {
	shape  qshape
	a, b   string // terms (and: sel, group; fulltext: token, group; page_walk: group)
	lo, hi string // range bounds
	after  hfad.OID
	limit  int
}

func (q qspec) query() hfad.Query {
	udef := func(v string) hfad.Query { return hfad.Term{Tag: hfad.TagUDef, Value: []byte(v)} }
	switch q.shape {
	case shapeAnd:
		return hfad.And{Kids: []hfad.Query{udef(q.a), udef(q.b)}}
	case shapeRange:
		return hfad.Range{Tag: hfad.TagUDef, Lo: []byte(q.lo), Hi: []byte(q.hi)}
	case shapeFulltext:
		return hfad.And{Kids: []hfad.Query{hfad.Term{Tag: hfad.TagFulltext, Value: []byte(q.a)}, udef(q.b)}}
	default:
		return hfad.And{Kids: []hfad.Query{udef(q.a)}}
	}
}

func (q qspec) page() hfad.Page { return hfad.Page{Limit: q.limit, After: q.after} }

func (q qspec) String() string {
	return fmt.Sprintf("%s(%q,%q,[%q,%q) after=%d limit=%d)", shapeNames[q.shape], q.a, q.b, q.lo, q.hi, q.after, q.limit)
}

func (o *oracle) expect(q qspec) []hfad.OID {
	o.sort()
	var ids []hfad.OID
	switch q.shape {
	case shapeAnd:
		ids = intersect(o.udef[q.a], o.udef[q.b])
	case shapeRange:
		for v, s := range o.udef {
			if v >= q.lo && v < q.hi {
				ids = append(ids, s...)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		ids = dedup(ids)
	case shapeFulltext:
		ids = intersect(o.text[q.a], o.udef[q.b])
	default:
		ids = o.udef[q.a]
	}
	i := sort.Search(len(ids), func(i int) bool { return ids[i] > q.after })
	ids = ids[i:]
	if q.limit > 0 && len(ids) > q.limit {
		ids = ids[:q.limit]
	}
	return ids
}

func intersect(a, b []hfad.OID) []hfad.OID {
	var out []hfad.OID
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func dedup(ids []hfad.OID) []hfad.OID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

func equalOIDs(a, b []hfad.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
