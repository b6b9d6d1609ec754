package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// record is the committed form of a benchmark run (bench/baseline.json):
// where it ran, and every workload × metric over the repeated suite runs.
type record struct {
	Meta      recordMeta                   `json:"meta"`
	Workloads map[string]map[string]spread `json:"workloads"`
}

type recordMeta struct {
	Commit  string `json:"commit"`
	Go      string `json:"go"`
	NProc   int    `json:"nproc"`
	Seed    int64  `json:"seed"`
	Seconds int    `json:"seconds"`
	Runs    int    `json:"runs"`
	Date    string `json:"date"`
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// The verdicts -compare gives one workload × metric pair.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's new median with its base under m's bound. A
// change counts only beyond bound·base + slack; when either side's own
// run-to-run spread is wider than that allowance the pair is unresolved
// rather than unchanged.
func judge(m metricDef, base, cur spread) string {
	allow := m.bound*math.Abs(base.Median) + m.slack
	noise := math.Max(base.Q3-base.Q1, cur.Q3-cur.Q1)
	diff := cur.Median - base.Median
	if m.better == "higher" {
		diff = -diff
	}
	switch {
	case diff > allow:
		return verdictWorse
	case noise > allow:
		return verdictUnresolved
	case diff < -allow:
		return verdictBetter
	default:
		return verdictUnchanged
	}
}

// compare prints one row per workload × end-to-end metric and reports
// whether any got worse.
func compare(out io.Writer, base, cur *record) (worse bool) {
	fmt.Fprintf(out, "base: commit %s, seed %d, %d×%d s, nproc %d, %s\n", base.Meta.Commit, base.Meta.Seed,
		base.Meta.Runs, base.Meta.Seconds, base.Meta.NProc, base.Meta.Go)
	fmt.Fprintf(out, "new:  commit %s, seed %d, %d×%d s, nproc %d, %s\n", cur.Meta.Commit, cur.Meta.Seed,
		cur.Meta.Runs, cur.Meta.Seconds, cur.Meta.NProc, cur.Meta.Go)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tverdict")
	for _, name := range workloadNames {
		b, c := base.Workloads[name], cur.Workloads[name]
		for _, m := range endToEnd {
			bs, ok1 := b[m.name]
			cs, ok2 := c[m.name]
			if !ok1 || !ok2 {
				continue
			}
			v := judge(m, bs, cs)
			worse = worse || v == verdictWorse
			bound := fmt.Sprintf("%g%%", m.bound*100)
			if m.slack > 0 {
				bound += fmt.Sprintf("+%g", m.slack)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f of %.4g\t%s\t%s\n",
				name, m.name, m.unit, bs.Median, cs.Median, ratio(cs.Median, bs.Median), bs.Median, bound, v)
		}
	}
	tw.Flush()
	return worse
}
