package graph

import (
	"math"
	"unicode/utf8"
)

// Node names reach the wire as JSON string literals, once per result row,
// and never change: Build quotes every node's ID into one byte arena, so the
// row encoder copies a name instead of escaping it again. The arena is the
// base's — it is part of the Graph value, so Apply's struct copy hands it to
// every version of the chain unchanged, like neighbors — and it is never
// written after Build: a node an overlay added has no entry and is quoted
// from its ID when asked for, which keeps forks of one parent, readers of
// old versions and the writer apart with no lock. It is built eagerly
// because lazily it would need one (or a rent rule), and the first reply
// would pay for every later one; eagerly it costs one pass over the names.

// quotedIDs is the arena: node v's literal, quotes included, is
// buf[off[v]:off[v+1]], and QuotePad zero bytes follow the last one, so a
// QuotePad-byte load from the start of any literal — or from any offset
// inside one — stays in bounds. A graph whose literals would not fit int32
// offsets has none (off is nil) and quotes every node on the fly.
type quotedIDs struct {
	buf []byte
	off []int32
}

// QuotePad is the width of the word a caller of QuotedNodeID may load past
// a literal: the arena's padding past its last one.
const QuotePad = 16

// quoteIDs builds the arena for nodes.
func quoteIDs(nodes []Node) quotedIDs {
	size := 0
	for i := range nodes {
		size += len(nodes[i].ID) + 2
	}
	if size > math.MaxInt32 {
		return quotedIDs{}
	}
	q := quotedIDs{buf: make([]byte, 0, size+QuotePad), off: make([]int32, len(nodes)+1)}
	for i := range nodes {
		q.buf = AppendJSONString(q.buf, string(nodes[i].ID))
		if len(q.buf) > math.MaxInt32 { // escapes grew it past the estimate
			return quotedIDs{}
		}
		q.off[i+1] = int32(len(q.buf))
	}
	q.buf = append(q.buf, make([]byte, QuotePad)...)
	return q
}

// QuotedNodeID returns the JSON string literal of the node with dense index
// i — the bytes AppendNodeIDJSON copies — from the arena Build quoted it
// into, with at least QuotePad readable bytes past its end (cap(lit) ≥
// len(lit)+QuotePad), so the literal can be copied in whole QuotePad-byte
// words. The bytes are shared by every version of the chain and must not
// be written. ok is false for a node the arena does not hold: one an
// overlay added since, or any node of a graph too large for an arena.
func (g *Graph) QuotedNodeID(i int) (lit []byte, ok bool) {
	off := g.quoted.off
	if i+1 >= len(off) {
		return nil, false
	}
	return g.quoted.buf[off[i] : off[i+1] : off[i+1]+QuotePad], true
}

// AppendNodeIDJSON appends the ID of the node with dense index i to dst as a
// JSON string literal — AppendJSONString(dst, string(g.NodeID(i))), copied
// from the arena Build quoted it into when i is a node of the chain's base.
func (g *Graph) AppendNodeIDJSON(dst []byte, i int) []byte {
	if lit, ok := g.QuotedNodeID(i); ok {
		return append(dst, lit...)
	}
	return AppendJSONString(dst, string(g.nodes[i].ID))
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, byte for byte what
// encoding/json writes with SetEscapeHTML(false): `"` and `\` backslashed,
// \b \f \n \r \t by their short escapes, other control bytes below 0x20 as
// \u00XX, each byte of invalid UTF-8 as \ufffd, U+2028 and U+2029 as
// \u2028 and \u2029, everything else — DEL and `<>&` included — verbatim.
// It is the tree's one string escaper: the arena above and the row encoder
// (core.RowBatch.AppendJSON) both write through it.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= ' ' && b != '"' && b != '\\' && b < utf8.RuneSelf {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
