package main

import (
	"fmt"
	"net/http"
	"time"
)

// scrape is one parsed /metrics exposition.
type scrape []promSample

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func fetchMetrics(url string) (scrape, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	samples, err := parsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return samples, nil
}

// value returns the series' sample, 0 when the binary does not export it:
// an absent series must never crash the benchmark that is meant to outlive
// renames (the full report lists which were absent).
func (s scrape) value(name string, labels map[string]string) float64 {
	v, _ := promSampleValue(s, name, labels)
	return v
}

func (s scrape) has(name string) bool {
	_, ok := promSampleValue(s, name, nil)
	return ok
}

// scrapeDelta is the growth of a counter, or of a histogram's _sum and
// _count, between two scrapes.
func scrapeDelta(before, after scrape, name string, labels map[string]string) float64 {
	return after.value(name, labels) - before.value(name, labels)
}
