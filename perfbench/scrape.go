package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text-format exposition: sample value by
// series key, the metric name followed by its label set as written
// (name{a="x",b="y"}, or the bare name for an unlabelled series).
type scrape map[string]float64

// parseScrape reads the Prometheus text exposition format (version
// 0.0.4): comment and blank lines are skipped, every other line is
// `name[{labels}] value [timestamp]`. Label values may hold any byte,
// with \\, \" and \n escaped, so the label block is scanned quote-aware.
func parseScrape(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		key, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp after %s", line, key)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("metrics line %d: series %s repeated", line, key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// splitSeries splits a sample line into its series key and the text after
// it.
func splitSeries(text string) (key, rest string, err error) {
	end := strings.IndexAny(text, "{ \t")
	if end <= 0 {
		return "", "", fmt.Errorf("no metric name in %q", text)
	}
	if text[end] != '{' {
		return text[:end], text[end:], nil
	}
	inQuote := false
	for i := end + 1; i < len(text); i++ {
		switch c := text[i]; {
		case inQuote && c == '\\':
			i++ // skip the escaped byte
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return text[:i+1], text[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label set in %q", text)
}

// sum adds every series of the metric family name, whatever its labels.
func (s scrape) sum(name string) float64 {
	total := 0.0
	for key, v := range s {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// scrapeDelta is the change of metric families between two scrapes of
// the same tiers.
type scrapeDelta struct{ before, after scrape }

func (d scrapeDelta) of(name string) float64 { return d.after.sum(name) - d.before.sum(name) }

// ratio returns the delta of num over the delta of num plus the delta of
// other, or 0 when neither moved.
func (d scrapeDelta) ratio(num, other string) float64 {
	return safeDiv(d.of(num), d.of(num)+d.of(other))
}

// fetchScrapes scrapes every URL and merges the results; series of
// different tiers are summed, so counters read fleet-wide.
func fetchScrapes(ctx context.Context, c *http.Client, urls []string) (scrape, error) {
	out := make(scrape)
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		s, err := parseScrape(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		for k, v := range s {
			out[k] += v
		}
	}
	return out, nil
}

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
