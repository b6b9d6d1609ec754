package dlrpq

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"graphquery/internal/graph"
)

// fmtKey is a configuration's key written with fmt, the form the search's
// sets and distance map were keyed by before keys were appended in place.
func fmtKey(c config) string {
	var b strings.Builder
	switch {
	case !c.hasObj:
		b.WriteByte('-')
	case c.obj.IsEdge():
		fmt.Fprintf(&b, "E%d", c.obj.Index())
	default:
		fmt.Fprintf(&b, "N%d", c.obj.Index())
	}
	fmt.Fprintf(&b, "#%d#", c.state)
	names := make([]string, 0, len(c.nu))
	for k := range c.nu {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d:%s;", k, c.nu[k].Kind(), c.nu[k].String())
	}
	return b.String()
}

// keyValues holds every graph.Value kind, with the int and float forms
// whose text differs most: signs, exponents, infinities and NaN.
var keyValues = []graph.Value{
	graph.Null(), graph.Bool(true), graph.Bool(false),
	graph.Int(0), graph.Int(-42), graph.Int(math.MaxInt64), graph.Int(math.MinInt64),
	graph.Float(2.5), graph.Float(-0.0), graph.Float(1e21), graph.Float(1e-7),
	graph.Float(math.Inf(-1)), graph.Float(math.NaN()),
	graph.Str(""), graph.Str("a;b=c:d"), graph.Str("ü"),
}

// TestConfigKeyBytes pins the bytes of a configuration's key: the start
// configuration, node and edge configurations, and an assignment holding
// each value kind, alone and all at once.
func TestConfigKeyBytes(t *testing.T) {
	all := assignment{}
	cfgs := []config{
		{state: 0}, // the start configuration
		{hasObj: true, obj: graph.MakeNodeObject(7), state: 3},
		{hasObj: true, obj: graph.MakeEdgeObject(1234), state: 12},
		{hasObj: true, obj: graph.MakeNodeObject(0), state: 100},
	}
	for i, v := range keyValues {
		cfgs = append(cfgs, config{hasObj: true, obj: graph.MakeEdgeObject(i), state: i, nu: assignment{"x": v}})
		all[fmt.Sprintf("v%02d", i)] = v
	}
	cfgs = append(cfgs, config{hasObj: true, obj: graph.MakeNodeObject(9), state: 2, nu: all})
	for _, c := range cfgs {
		if got, want := string(c.appendKey(nil)), fmtKey(c); got != want {
			t.Errorf("key %q, want %q", got, want)
		}
	}
	if got := string(cfgs[0].appendKey(nil)); got != "-#0#" {
		t.Errorf("start key %q, want -#0#", got)
	}
	if got := string(cfgs[4].appendKey(nil)); got != "E0#0#x=0:null;" {
		t.Errorf("null key %q", got)
	}
}

// TestConfigKeyAllocs: a key is built into the caller's buffer, so once the
// buffer has grown, building one allocates nothing.
func TestConfigKeyAllocs(t *testing.T) {
	c := config{hasObj: true, obj: graph.MakeEdgeObject(1234), state: 12,
		nu: assignment{"x": graph.Int(-7), "y": graph.Float(0.25), "z": graph.Str("q")}}
	buf := c.appendKey(nil)
	if n := testing.AllocsPerRun(100, func() { buf = c.appendKey(buf[:0]) }); n != 0 {
		t.Errorf("building a key allocates %.0f times, want 0", n)
	}
}
