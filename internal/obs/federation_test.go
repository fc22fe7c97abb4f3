package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseExposition(t *testing.T) {
	in := `# HELP ignored comment
aa_total 3
bb_requests{route="GET /v1/jobs",status="200"} 7
not a metric line
bad-name{x="y"} 1
cc_ratio 0.5
`
	got, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []FedSeries{
		{Name: "aa_total", Value: 3},
		{Name: "bb_requests", Labels: `route="GET /v1/jobs",status="200"`, Value: 7},
		{Name: "cc_ratio", Value: 0.5},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("series %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFederatorDueGatesByInterval(t *testing.T) {
	f := NewFederator(nil)
	t0 := time.Unix(1000, 0)
	if !f.Due("w1", t0, time.Second) {
		t.Fatal("unknown node must be due immediately")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("aa_total 1\n"))
	}))
	defer srv.Close()
	if err := f.Scrape("w1", srv.URL, t0); err != nil {
		t.Fatal(err)
	}
	if f.Due("w1", t0.Add(500*time.Millisecond), time.Second) {
		t.Error("node due again before the interval elapsed")
	}
	if !f.Due("w1", t0.Add(time.Second), time.Second) {
		t.Error("node not due after the interval elapsed")
	}
}

func TestWriteClusterFederatesAndMarksStale(t *testing.T) {
	mkNode := func(body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(body))
		}))
	}
	w1 := mkNode("jobs_total 3\nreq{route=\"a\"} 1\n")
	defer w1.Close()
	w2 := mkNode("jobs_total 4\nreq{route=\"a\"} 2\n")
	defer w2.Close()

	f := NewFederator(nil)
	t0 := time.Unix(1000, 0)
	if err := f.Scrape("w1", w1.URL, t0); err != nil {
		t.Fatal(err)
	}
	// w2 scraped much earlier: stale by maxAge at render time.
	if err := f.Scrape("w2", w2.URL, t0.Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	peers := map[string]bool{"w1": true, "w2": false}
	f.WriteCluster(&b, peers, t0, 10*time.Second)
	out := b.String()

	for _, want := range []string{
		`smtserved_cluster_node_up{node="w1"} 1`,
		`smtserved_cluster_node_stale{node="w1"} 0`,
		`smtserved_cluster_node_up{node="w2"} 0`,
		`smtserved_cluster_node_stale{node="w2"} 1`,
		`jobs_total{node="w1"} 3`,
		`req{node="w1",route="a"} 1`,
		// Aggregates cover only fresh nodes: w2's 4 and 2 are excluded.
		"\njobs_total 3\n",
		"\nreq{route=\"a\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `jobs_total{node="w2"}`) {
		t.Errorf("stale node's series leaked into the exposition:\n%s", out)
	}

	sum := f.Summary(peers, t0, 10*time.Second)
	if sum["cluster_nodes"] != 2 || sum["cluster_nodes_fresh"] != 1 ||
		sum["cluster_nodes_stale"] != 1 || sum["cluster_series"] != 2 {
		t.Errorf("unexpected summary: %+v", sum)
	}
}

func TestScrapeFailureRetainedAndForgotten(t *testing.T) {
	f := NewFederator(nil)
	t0 := time.Unix(1000, 0)
	if err := f.Scrape("gone", "http://127.0.0.1:1/metrics", t0); err == nil {
		t.Fatal("scrape of a dead endpoint did not error")
	}
	// The failed node renders stale meta-series only.
	var b strings.Builder
	f.WriteCluster(&b, map[string]bool{"gone": true}, t0, time.Second)
	if !strings.Contains(b.String(), `smtserved_cluster_node_stale{node="gone"} 1`) {
		t.Errorf("failed scrape not rendered stale:\n%s", b.String())
	}
	// Once the node leaves the peer set it is no longer rendered.
	var b2 strings.Builder
	f.WriteCluster(&b2, map[string]bool{}, t0, time.Second)
	if strings.Contains(b2.String(), "gone") {
		t.Error("departed node still rendered")
	}
}

// Nil federator methods no-op so an untraced coordinator needs no guards.
func TestNilFederatorNoOps(t *testing.T) {
	var f *Federator
	if f.Due("x", time.Unix(0, 0), time.Second) {
		t.Error("nil federator reported a node due")
	}
	if err := f.Scrape("x", "http://unused", time.Unix(0, 0)); err != nil {
		t.Error("nil federator scrape errored")
	}
	var b strings.Builder
	f.WriteCluster(&b, nil, time.Unix(0, 0), time.Second)
	if b.Len() != 0 {
		t.Error("nil federator wrote output")
	}
	if f.Summary(nil, time.Unix(0, 0), time.Second) != nil {
		t.Error("nil federator returned a summary")
	}
}
