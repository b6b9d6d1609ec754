// The table of served kinds: one row per language the engine serves, and
// the only place a request's kind is looked at. A row names its Request.Lang
// (none for the three kinds Detect finds in the text), its result kind, the
// anchors it takes, and how it is served: its reader, run through the plan
// cache under the row's family and holding the text's position and nesting
// bounds, then its evaluator, which delivers into the query's sink. Every
// stage of every row is opened by stage (query.go), so no kind can lack a
// span; `make lint` fails if a kind is switched on outside this file.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"graphquery/internal/eval"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
)

// QueryKind classifies a query: it indexes the table of served kinds.
type QueryKind int

// The query kinds the engine serves. The first three are detected in the
// query text (Detect); the rest are named by Request.Lang.
const (
	KindRPQ     QueryKind = iota // plain regular path query (ℓ-RPQ if it has ^vars)
	KindDLRPQ                    // contains atom brackets or data tests
	KindCRPQ                     // contains ":-"
	KindTwoWay                   // two-way RPQ
	KindGQL                      // GQL ASCII-art pattern
	KindCoreGQL                  // CoreGQL fragment of a GQL pattern
	KindCypher                   // Cypher-fragment pattern
	KindPMR                      // path-representation enumeration
	KindSpanner                  // document spanner over Request.Doc
	KindRelAlg                   // relational algebra over REACH atoms
	KindBag                      // bag-semantics answer count
)

// anchors is a row's rule for a request's from and to.
type anchors int

const (
	noAnchors     anchors = iota // refused
	bothAnchors                  // both required
	eitherAnchors                // none: the row's result; both: paths between them
)

// kind is one row of the table.
type kind struct {
	lang    string  // the Request.Lang that names the row; "" for the kinds Detect finds
	result  string  // Response.Kind, and the kind the sink's Begin is told
	anchors anchors // what the row does with from and to
	serve   func(x *run) (*Response, error)
}

// kinds is the table of served kinds.
var kinds = [...]kind{
	KindRPQ: {"", "pairs", eitherAnchors,
		eitherWay(planned("lrpq", readLRPQ, lrpqPaths), planned("rpq", readRPQ, rpqPairs))},
	KindDLRPQ:   {"", "paths", bothAnchors, planned("dlrpq", readDLRPQ, dlrpqPaths)},
	KindCRPQ:    {"", "rows", noAnchors, planned("crpq", readCRPQ, crpqRows)},
	KindTwoWay:  {"2rpq", "pairs", noAnchors, planned("2rpq", readTwoWay, twoWayPairs)},
	KindGQL:     {"gql", "matches", noAnchors, planned("gql", reader(parseGQL), gqlMatches)},
	KindCoreGQL: {"coregql", "matches", noAnchors, planned("coregql", reader(parseCoreGQL), coreGQLMatches)},
	KindCypher:  {"cypher", "pairs", noAnchors, planned("cypher", readCypher, rpqPairs)},
	KindPMR:     {"pmr", "paths", bothAnchors, pathSet(planned("rpq", readRPQ, pmrPaths))},
	KindSpanner: {"spanner", "spans", noAnchors, planned("spanner", reader(spanner.Parse), spannerSpans)},
	KindRelAlg:  {"relalg", "relation", noAnchors, planned("relalg", reader(relalg.ParseQuery), relalgRelation)},
	KindBag:     {"bag", "bag", noAnchors, planned("bag", reader(bounded(rpq.Parse)), bagCount)},
}

// Detect classifies a query string: CRPQs contain ":-", dl-RPQs contain
// bracketed atoms or data tests, everything else parses as an (ℓ-)RPQ.
func Detect(q string) QueryKind {
	if strings.Contains(q, ":-") {
		return KindCRPQ
	}
	for i := 0; i < len(q); i++ {
		switch q[i] {
		case '[', '=', '<', '>':
			return KindDLRPQ
		case ':':
			if i+1 < len(q) && q[i+1] == '=' {
				return KindDLRPQ
			}
		}
	}
	return KindRPQ
}

// ResultKinds lists the result kinds of the table's rows, each once, in
// row order: every Kind a Response can have.
func ResultKinds() []string {
	var out []string
	for _, k := range kinds {
		if !slices.Contains(out, k.result) {
			out = append(out, k.result)
		}
	}
	return out
}

// Langs lists the Request.Lang values that name the table's rows, in row
// order.
func Langs() []string {
	var out []string
	for _, k := range kinds {
		if k.lang != "" {
			out = append(out, k.lang)
		}
	}
	return out
}

// dispatch finds the request's row — by its Lang, or by Detect when Lang
// is "" or "auto" — and serves it.
func (x *run) dispatch() (*Response, error) {
	lang := x.req.Lang
	if lang == "" || lang == "auto" {
		return x.serve(Detect(x.req.Query))
	}
	for k := range kinds {
		if kinds[k].lang == lang {
			return x.serve(QueryKind(k))
		}
	}
	return nil, badQuery(fmt.Errorf("core: unknown lang %q", lang))
}

// serve serves x as kind k: the row's request check, then its evaluator,
// then the delivery's stages on the trace.
func (x *run) serve(kind QueryKind) (*Response, error) {
	k := &kinds[kind]
	x.result = k.result
	if k.anchors == eitherAnchors && x.anchored {
		x.result = "paths"
	}
	if err := k.checkAnchors(x); err != nil {
		return nil, err
	}
	resp, err := k.serve(x)
	x.d.record(x.tr)
	if err != nil {
		return nil, err
	}
	resp.Kind = x.result
	return resp, nil
}

// checkAnchors refuses a request whose from and to the row's rule does not
// take.
func (k *kind) checkAnchors(x *run) error {
	both := x.req.From != "" && x.req.To != ""
	switch {
	case k.anchors == noAnchors && x.anchored && k.lang != "":
		return badQuery(fmt.Errorf("core: lang %q queries do not take from/to anchors", k.lang))
	case k.anchors == noAnchors && x.anchored:
		return badQuery(errors.New("core: CRPQ queries return rows; do not anchor them with from/to"))
	case k.anchors == bothAnchors && k.lang != "" && !both:
		return badQuery(fmt.Errorf("core: %s queries need both from and to", k.lang))
	case k.anchors == bothAnchors && !x.anchored:
		return badQuery(errors.New("core: dl-RPQ queries need from and to endpoints"))
	case k.anchors != noAnchors && x.anchored && !both:
		return badQuery(errors.New("core: path queries need both from and to"))
	}
	return nil
}

// planned is the serve of a row: resolve the anchors, read the text through
// the plan cache under family, evaluate the plan.
func planned[P any](family string, read func(*run, string) (P, error), evaluate func(*run, P) (*Response, error)) func(*run) (*Response, error) {
	return func(x *run) (*Response, error) {
		if err := x.resolveAnchors(); err != nil {
			return nil, err
		}
		p, err := cached(x.e, x.gs, family, x.req.Query, func(text string) (P, error) { return read(x, text) })
		if err != nil {
			return nil, badQuery(err)
		}
		return evaluate(x, p)
	}
}

// eitherWay serves an anchored request with paths and any other with pairs:
// the RPQ row.
func eitherWay(paths, pairs func(*run) (*Response, error)) func(*run) (*Response, error) {
	return func(x *run) (*Response, error) {
		if x.anchored {
			return paths(x)
		}
		return pairs(x)
	}
}

// pathSet guards the pmr row: a path set may be infinite, so a limit is
// required, and a representation holds all paths or the shortest ones.
func pathSet(serve func(*run) (*Response, error)) func(*run) (*Response, error) {
	return func(x *run) (*Response, error) {
		if x.limit <= 0 {
			return nil, badQuery(errors.New("core: pmr queries need a limit > 0 (path sets may be infinite)"))
		}
		if m := x.req.Mode; m != eval.All && m != eval.Shortest {
			return nil, badQuery(fmt.Errorf("core: pmr queries take mode all or shortest, not %s", m))
		}
		return serve(x)
	}
}
