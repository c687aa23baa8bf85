// Command sphinxcli is an interactive shell over a simulated
// disaggregated-memory cluster running one of the three index systems.
// Useful for poking at the index and watching per-operation network costs.
//
//	$ go run ./cmd/sphinxcli
//	sphinx> put LYRICS words-of-a-song
//	ok  (6 round trips, 13.2 µs)
//	sphinx> get LYRICS
//	"words-of-a-song"  (3 round trips, 6.6 µs)
//	sphinx> scan LYR LZ 10
//	...
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"sphinx"
)

func main() {
	sysName := flag.String("system", "sphinx", "index system: sphinx, smart or art")
	serveAddr := flag.String("serve", "", "serve live observability HTTP on this address (host:0 for an ephemeral port): /metrics, /snapshot, /traces, /debug/pprof")
	topAddr := flag.String("top", "", "one-shot: fetch /mn from a live observability endpoint (URL or host:port), render the per-MN table, and exit")
	watch := flag.Duration("watch", 0, "with -top, redraw the table at this interval until interrupted")
	replication := flag.Int("replication", 0, "sphinx: replicate every acknowledged write to this many memory nodes (anchors; 0 = off)")
	hotReplicas := flag.Int("hot-replicas", 0, "sphinx: promote hot keys onto this many memory nodes (hot-replica layer; 0 = off)")
	flag.Parse()

	if *topAddr != "" {
		if err := topRemote(*topAddr, *watch); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var sys sphinx.System
	switch strings.ToLower(*sysName) {
	case "sphinx":
		sys = sphinx.SystemSphinx
	case "smart":
		sys = sphinx.SystemSMART
	case "art":
		sys = sphinx.SystemART
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *sysName)
		os.Exit(2)
	}

	cluster, err := sphinx.NewCluster(sphinx.Config{System: sys, Replication: *replication, HotReplicaFactor: *hotReplicas})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	session := cluster.NewComputeNode().NewSession()
	fmt.Printf("%v cluster ready (3 memory nodes, simulated RDMA)\n", sys)
	serving := false
	if *serveAddr != "" {
		_, bound, err := session.ServeObservability(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		serving = true
		fmt.Printf("observability: http://%s/ (metrics, snapshot, traces, pprof)\n", bound)
	}
	fmt.Println("commands: get K | put K V | update K V | del K | scan LO HI [N] | trace OP ... | stats | metrics | top | serve [ADDR] | mem | help | quit")

	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("sphinx> ")
		if !in.Scan() {
			break
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		before := session.Stats()
		cmd := strings.ToLower(fields[0])
		switch {
		case cmd == "quit" || cmd == "exit":
			return
		case cmd == "help":
			fmt.Println("get K | put K V | update K V | del K | scan LO HI [N] | stats | metrics | mem | quit")
			fmt.Println("trace get K | trace put K V | trace update K V | trace del K | trace scan LO HI [N]  — one op's round-trip timeline")
			fmt.Println("top  — per-MN load table (busy ratio, verb share, occupancy, health) plus SLOs and alerts")
			fmt.Println("serve [ADDR]  — start the live observability HTTP endpoint (default 127.0.0.1:0)")
			continue
		case cmd == "top":
			// Advance the plane to the session's virtual now so the table
			// reflects everything this shell has done, then render it.
			cluster.SampleObservability(session.Stats().ClockPs)
			renderTop(os.Stdout, cluster.Observability())
			continue
		case cmd == "trace" && len(fields) >= 3:
			tr, err := traceOp(session, fields[1:])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(tr.Format())
			continue
		case cmd == "metrics":
			if err := session.Registry().Snapshot().WritePrometheus(os.Stdout, "sphinx"); err != nil {
				fmt.Println("error:", err)
			}
			continue
		case cmd == "serve":
			addr := "127.0.0.1:0"
			if len(fields) == 2 {
				addr = fields[1]
			}
			_, bound, err := session.ServeObservability(addr)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			serving = true
			fmt.Printf("observability: http://%s/ (metrics, snapshot, traces, pprof)\n", bound)
			continue
		case cmd == "stats":
			st := session.Stats()
			fmt.Printf("session: %d round trips, %d verbs, %d B read, %d B written, %.1f µs virtual\n",
				st.RoundTrips, st.Verbs, st.BytesRead, st.BytesWritten, float64(st.ClockPs)/1e6)
			if sc, ok := session.SphinxStats(); ok {
				fmt.Printf("sphinx:  %d filter hits, %d fallbacks, %d root walks, %d false positives, %d restarts\n",
					sc.FilterHits, sc.FilterFallbacks, sc.RootStarts, sc.FalsePositives, sc.Restarts)
			}
			continue
		case cmd == "mem":
			mu, err := cluster.MemoryUsage()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("MN memory: inner %d B, leaves %d B, hash table %d B, metadata %d B\n",
				mu.InnerNodeBytes, mu.LeafBytes, mu.HashTableBytes, mu.MetadataBytes)
			continue
		case cmd == "get" && len(fields) == 2:
			v, ok, err := session.Get([]byte(fields[1]))
			report(err, func() { fmt.Printf("%q", v) }, ok, "not found")
		case cmd == "put" && len(fields) == 3:
			err := session.Put([]byte(fields[1]), []byte(fields[2]))
			report(err, func() { fmt.Print("ok") }, true, "")
		case cmd == "update" && len(fields) == 3:
			ok, err := session.Update([]byte(fields[1]), []byte(fields[2]))
			report(err, func() { fmt.Print("ok") }, ok, "not found")
		case cmd == "del" && len(fields) == 2:
			ok, err := session.Delete([]byte(fields[1]))
			report(err, func() { fmt.Print("deleted") }, ok, "not found")
		case cmd == "scan" && (len(fields) == 3 || len(fields) == 4):
			limit := 0
			if len(fields) == 4 {
				limit, _ = strconv.Atoi(fields[3])
			}
			kvs, err := session.Scan([]byte(fields[1]), []byte(fields[2]), limit)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, kv := range kvs {
				fmt.Printf("  %-24s %q\n", kv.Key, kv.Value)
			}
			fmt.Printf("%d keys", len(kvs))
		default:
			fmt.Println("bad command; try: help")
			continue
		}
		d := session.Stats()
		fmt.Printf("  (%d round trips, %.1f µs)\n",
			d.RoundTrips-before.RoundTrips, float64(d.ClockPs-before.ClockPs)/1e6)
	}
	if serving {
		// Stdin closed (e.g. piped commands ran out) but the HTTP endpoint
		// was requested; keep serving until the process is killed.
		fmt.Println("stdin closed; observability server stays up (interrupt to exit)")
		select {}
	}
}

// traceOp runs one operation under Session.Trace. The op's own outcome
// (found / not found) is part of the timeline's value, so only hard
// errors are reported.
func traceOp(s *sphinx.Session, args []string) (*sphinx.Trace, error) {
	op := strings.ToLower(args[0])
	key := []byte(args[1])
	switch {
	case op == "get":
		return s.Trace("get "+args[1], func() error {
			_, _, err := s.Get(key)
			return err
		})
	case op == "del" || op == "delete":
		return s.Trace("del "+args[1], func() error {
			_, err := s.Delete(key)
			return err
		})
	case op == "put" && len(args) == 3:
		return s.Trace("put "+args[1], func() error {
			return s.Put(key, []byte(args[2]))
		})
	case op == "update" && len(args) == 3:
		return s.Trace("update "+args[1], func() error {
			_, err := s.Update(key, []byte(args[2]))
			return err
		})
	case op == "scan" && len(args) >= 3:
		limit := 0
		if len(args) > 3 {
			limit, _ = strconv.Atoi(args[3])
		}
		return s.Trace(strings.Join(args, " "), func() error {
			_, err := s.Scan(key, []byte(args[2]), limit)
			return err
		})
	default:
		return nil, fmt.Errorf("trace: usage: trace get K | trace put K V | trace update K V | trace del K | trace scan LO HI [N]")
	}
}

// topRemote fetches /mn from a live observability endpoint and renders
// the per-MN table; with a watch interval it clears and redraws until
// interrupted, giving a top(1)-style live view of a running cluster.
func topRemote(addr string, watch time.Duration) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/mn"
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		snap, err := fetchPlane(client, url)
		if err != nil {
			return err
		}
		if watch > 0 {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		renderTop(os.Stdout, snap)
		if watch <= 0 {
			return nil
		}
		time.Sleep(watch)
	}
}

func fetchPlane(client *http.Client, url string) (sphinx.PlaneSnapshot, error) {
	var snap sphinx.PlaneSnapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return snap, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("%s: decoding /mn: %w", url, err)
	}
	return snap, nil
}

// renderTop prints the human view of the observability plane: one row
// per memory node with its latest-tick load, then SLO burn rates and
// any alerts that are not inactive.
func renderTop(w io.Writer, snap sphinx.PlaneSnapshot) {
	fmt.Fprintf(w, "plane: %d ticks, window %.0f µs, virtual now %.1f ms\n",
		snap.Ticks, float64(snap.WindowPs)/1e6, float64(snap.TickPs)/1e9)
	fmt.Fprintf(w, "%-4s %-7s %-8s %8s %8s %7s %9s %8s %9s %7s %7s\n",
		"MN", "MEMBER", "HEALTH", "BUSY", "WAIT", "VERB%", "VERBS/W", "RT/W", "HASHLOAD", "OCCUP", "FAULTS")
	for _, n := range snap.Nodes {
		member := "yes"
		if !n.Member {
			member = "no"
		}
		fmt.Fprintf(w, "%-4d %-7s %-8s %7.1f%% %7.1f%% %6.1f%% %9d %8d %8.1f%% %6.1f%% %7d\n",
			n.Node, member, n.Health,
			100*n.BusyRatio, 100*n.WaitRatio, 100*n.VerbShare,
			n.WindowVerbs, n.WindowRTs,
			100*n.HashLoad, 100*n.ArenaOccupancy, n.Faults)
	}
	for _, s := range snap.SLOs {
		fmt.Fprintf(w, "slo %s (%s p%g < %.2f µs): fast burn %.2f, slow burn %.2f, attainment %.4f\n",
			s.SLO.Name, s.OpName, 100*s.SLO.Quantile, float64(s.SLO.LatencyPs)/1e6,
			s.FastBurn, s.SlowBurn, s.Attainment)
	}
	active := 0
	for _, a := range snap.Alerts {
		if a.State.String() == "inactive" {
			continue
		}
		active++
		fmt.Fprintf(w, "alert %s{%s=%s}: %s (value %.3f, fired %d, resolved %d)\n",
			a.Rule, a.Signal, a.Label, a.State, a.Value, a.Fired, a.Resolved)
	}
	if active == 0 {
		fmt.Fprintf(w, "alerts: none active (%d rules evaluated)\n", len(snap.Alerts))
	}
}

func report(err error, success func(), ok bool, missing string) {
	switch {
	case err != nil:
		fmt.Print("error: ", err)
	case !ok:
		fmt.Print(missing)
	default:
		success()
	}
}
