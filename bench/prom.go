package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promPage is one parsed /metrics scrape.
type promPage []promSample

// parseProm reads the text exposition format (0.0.4) the daemon's
// obs.MetricWriter emits: comment lines skipped, one sample per line,
// label values with \\ \" \n escapes.
func parseProm(r io.Reader) (promPage, error) {
	var page promPage
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		page = append(page, s)
	}
	return page, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		s.labels = map[string]string{}
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if rest == "" {
				return s, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("prom: bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("prom: unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// sum adds every sample of name whose labels include all of the given
// key/value pairs — one call covers both a plain counter and a per-graph
// family summed over graphs.
func (p promPage) sum(name string, kv ...string) float64 {
	total := 0.0
samples:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				continue samples
			}
		}
		total += s.value
	}
	return total
}
