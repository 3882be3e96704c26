// Command modellake is the command-line interface to a durable model lake.
//
// Usage:
//
//	modellake <command> [flags]
//
// Commands:
//
//	gen      generate a synthetic benchmark lake into a directory
//	ls       list lake models
//	card     print a model's card (markdown)
//	search   keyword search over model cards
//	related  content-based related-model search
//	task     rank models on a labeled task sample from a domain
//	query    run an MLQL declarative query
//	graph    print the recovered version graph
//	docgen   draft a model card from lake analyses
//	audit    audit a model (optionally with flagged upstream models)
//	cite     print a version-anchored citation
//	why      print why-provenance for a model
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"modellake"
	"modellake/internal/advisor"
	"modellake/internal/cluster"
	"modellake/internal/lakegen"
	"modellake/internal/search"
	"modellake/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = cmdGen(args)
	case "ls":
		err = cmdLs(args)
	case "card":
		err = cmdCard(args)
	case "search":
		err = cmdSearch(args)
	case "related":
		err = cmdRelated(args)
	case "task":
		err = cmdTask(args)
	case "advise":
		err = cmdAdvise(args)
	case "query":
		err = cmdQuery(args)
	case "graph":
		err = cmdGraph(args)
	case "docgen":
		err = cmdDocgen(args)
	case "audit":
		err = cmdAudit(args)
	case "cite":
		err = cmdCite(args)
	case "why":
		err = cmdWhy(args)
	case "serve":
		err = cmdServe(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "modellake: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "modellake %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: modellake <command> [flags]

commands:
  gen      -dir DIR [-bases N] [-children N] [-drop P] [-lies P] [-anon] [-seed N] [-export DIR]
  ls       -dir DIR
  card     -dir DIR -id MODEL
  search   -dir DIR -q 'TEXT' [-k N]
  related  -dir DIR -id MODEL [-space behavior|weights] [-k N]
  task     -dir DIR -domain NAME [-n N] [-k N]
  advise   -dir DIR -domain NAME [-n N] [-k N]
  query    -dir DIR -q 'FIND MODELS ...' [-explain]
  graph    -dir DIR
  docgen   -dir DIR -id MODEL
  audit    -dir DIR -id MODEL [-flag MODEL=REASON]...
  cite     -dir DIR -id MODEL
  why      -dir DIR -id MODEL
  serve    -dir DIR [-addr :8080] [-shards N] [-replicas N]
           [-request-timeout 30s] [-max-inflight 256]
           [-read-timeout 30s] [-write-timeout 90s] [-idle-timeout 2m]
           [-max-body BYTES] [-drain-timeout 15s] [-pprof]`)
}

func openLake(dir string) (*modellake.Lake, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	return modellake.Open(modellake.Config{Dir: dir, Seed: 1})
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	bases := fs.Int("bases", 4, "base model families")
	children := fs.Int("children", 5, "derived models per family")
	drop := fs.Float64("drop", 0.3, "card field dropout probability")
	lies := fs.Float64("lies", 0, "fraction of cards with injected misinformation")
	anon := fs.Bool("anon", false, "give models opaque names")
	seed := fs.Uint64("seed", 42, "generation seed")
	export := fs.String("export", "", "also export the benchmark lake (weights+cards+ground truth) to this directory")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()

	spec := modellake.DefaultLakeSpec(*seed)
	spec.NumBases = *bases
	spec.ChildrenPerBase = *children
	spec.CardDropProb = *drop
	spec.LieFrac = *lies
	spec.AnonymousNames = *anon
	pop, err := modellake.GenerateLake(spec)
	if err != nil {
		return err
	}
	for _, ds := range pop.Datasets {
		lk.RegisterDataset(ds)
	}
	nameToID := map[string]string{}
	for _, m := range pop.Members {
		// Carry the declared (card-level) history into the record so
		// provenance has something to journal; lies and gaps carry over.
		if m.Card.TrainingData != "" || m.Card.BaseModel != "" {
			m.Model.Hist = &modellake.History{
				DatasetID:      m.Card.TrainingData,
				DatasetDomain:  m.Card.Domain,
				Transformation: m.Card.Transform,
			}
			if base, ok := nameToID[m.Card.BaseModel]; ok {
				m.Model.Hist.BaseModelIDs = []string{base}
			}
		}
		rec, err := lk.Ingest(m.Model, m.Card, modellake.RegisterOptions{Name: m.Truth.Name})
		if err != nil {
			return err
		}
		nameToID[m.Truth.Name] = rec.ID
		fmt.Printf("%s  %-24s depth=%d transform=%s\n",
			rec.ID, m.Truth.Name, m.Truth.Depth, m.Truth.Transform)
	}
	fmt.Printf("generated %d models into %s\n", lk.Count(), *dir)
	if *export != "" {
		if err := lakegen.Export(pop, *export); err != nil {
			return err
		}
		fmt.Printf("exported benchmark artifact (weights, cards, ground truth) to %s\n", *export)
	}
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	recs, err := lk.Records()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		completeness := "-"
		if c, err := lk.Card(rec.ID); err == nil {
			completeness = fmt.Sprintf("%.0f%%", c.Completeness()*100)
		}
		fmt.Printf("%s  %-24s v%-3s %-18s params=%-6d card=%s\n",
			rec.ID, rec.Name, rec.Version, rec.Arch, rec.NumParams, completeness)
	}
	return nil
}

func cmdCard(args []string) error {
	fs := flag.NewFlagSet("card", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	id := fs.String("id", "", "model id")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	c, err := lk.Card(*id)
	if err != nil {
		return err
	}
	fmt.Print(c.Markdown())
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	q := fs.String("q", "", "query text")
	k := fs.Int("k", 10, "results")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	for _, h := range lk.SearchKeyword(*q, *k) {
		printHit(lk, h)
	}
	return nil
}

func cmdRelated(args []string) error {
	fs := flag.NewFlagSet("related", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	id := fs.String("id", "", "query model id")
	space := fs.String("space", "behavior", "embedding space: behavior or weights")
	k := fs.Int("k", 10, "results")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	hits, err := lk.SearchByModel(*id, *space, *k)
	if err != nil {
		return err
	}
	for _, h := range hits {
		printHit(lk, h)
	}
	return nil
}

func cmdTask(args []string) error {
	fs := flag.NewFlagSet("task", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	domain := fs.String("domain", "", "domain to sample task examples from")
	n := fs.Int("n", 16, "task examples")
	k := fs.Int("k", 10, "results")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	dom := modellake.NewDomain(*domain, 8, 3, domainSeedCLI(*domain))
	ds := dom.Sample(*domain+"/task", *n, 0.4, modellake.NewRNG(99))
	hits, err := lk.SearchTask(search.DatasetAsTask(ds, *n), *k)
	if err != nil {
		return err
	}
	for _, h := range hits {
		printHit(lk, h)
	}
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	domain := fs.String("domain", "", "domain to sample task examples from")
	n := fs.Int("n", 16, "task examples")
	k := fs.Int("k", 5, "recommendations")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	dom := modellake.NewDomain(*domain, 8, 3, domainSeedCLI(*domain))
	ds := dom.Sample(*domain+"/task", *n, 0.4, modellake.NewRNG(99))
	advice, err := advisor.Advise(lk, search.DatasetAsTask(ds, *n), *k)
	if err != nil {
		return err
	}
	fmt.Print(advice.Markdown())
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	q := fs.String("q", "", "MLQL query")
	explain := fs.Bool("explain", false, "print the evaluation plan instead of running")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	if *explain {
		plan, err := lk.Explain(*q)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	res, err := lk.Query(*q)
	if err != nil {
		return err
	}
	fmt.Printf("-- %s\n", res.Query)
	for _, h := range res.Hits {
		rec, _ := lk.Record(h.ID)
		name := ""
		if rec != nil {
			name = rec.Name
		}
		fmt.Printf("%s  %-24s score=%.4f\n", h.ID, name, h.Score)
	}
	return nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	g, err := lk.VersionGraphContext(context.Background())
	if err != nil {
		return err
	}
	for _, e := range g.Edges {
		fmt.Printf("%s -> %s  (%s)\n", e.Parent, e.Child, e.Transform)
	}
	fmt.Printf("%d nodes, %d edges\n", len(g.Nodes), len(g.Edges))
	return nil
}

func cmdDocgen(args []string) error {
	fs := flag.NewFlagSet("docgen", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	id := fs.String("id", "", "model id")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	draft, err := lk.GenerateCardContext(context.Background(), *id)
	if err != nil {
		return err
	}
	fmt.Print(draft.Card.Markdown())
	if len(draft.Evidence) > 0 {
		fmt.Println("## Evidence")
		fmt.Println()
		for field, ev := range draft.Evidence {
			fmt.Printf("- %s: %s\n", field, ev)
		}
	}
	for _, f := range draft.Flags {
		fmt.Printf("\nWARNING: %s\n", f)
	}
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	id := fs.String("id", "", "model id")
	var flags flagList
	fs.Var(&flags, "flag", "flagged model as MODEL=REASON (repeatable)")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	flagged := map[string]string{}
	for _, f := range flags {
		parts := strings.SplitN(f, "=", 2)
		reason := "flagged"
		if len(parts) == 2 {
			reason = parts[1]
		}
		flagged[parts[0]] = reason
	}
	rep, err := lk.AuditContext(context.Background(), *id, flagged)
	if err != nil {
		return err
	}
	fmt.Print(rep.Markdown())
	return nil
}

func cmdCite(args []string) error {
	fs := flag.NewFlagSet("cite", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	id := fs.String("id", "", "model id")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	c, err := lk.Cite(*id)
	if err != nil {
		return err
	}
	fmt.Println(c)
	return nil
}

func cmdWhy(args []string) error {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	id := fs.String("id", "", "model id")
	fs.Parse(args)
	lk, err := openLake(*dir)
	if err != nil {
		return err
	}
	defer lk.Close()
	ex, err := lk.Provenance().Why("model:" + *id)
	if err != nil {
		return err
	}
	fmt.Printf("entity:   %s\n", ex.Entity)
	fmt.Printf("activity: %s\n", ex.Activity)
	for _, u := range ex.UsedInputs {
		fmt.Printf("used:     %s\n", u)
	}
	for _, a := range ex.Agents {
		fmt.Printf("agent:    %s\n", a)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory")
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 0, "serve a sharded cluster with this many shards (0 = single-node lake)")
	replicas := fs.Int("replicas", 1, "read replicas per shard in cluster mode (-shards > 0)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a request, including body")
	writeTimeout := fs.Duration("write-timeout", 90*time.Second, "max time to write a response")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle limit")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request handler deadline (0 disables)")
	maxInflight := fs.Int("max-inflight", 256, "concurrent request cap; excess requests get 429 (0 disables)")
	maxBody := fs.Int64("max-body", 64<<20, "ingest request body cap in bytes")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain limit")
	pprof := fs.Bool("pprof", false, "expose /debug/pprof/* profiling endpoints")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	// Bind the listener and routes before opening the lake, so orchestrators
	// see the process alive (and /readyz honestly "opening") while a large
	// log replays, instead of connection-refused followed by a ready flip the
	// instant the port binds.
	srv := server.NewOpening(server.Config{
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInflight,
		MaxBodyBytes:   *maxBody,
		AccessLog:      os.Stderr,
		EnablePprof:    *pprof,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Serve until the listener fails, the open fails, or a shutdown signal
	// arrives.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()

	var lakeClose atomic.Pointer[func() error]
	defer func() {
		if f := lakeClose.Load(); f != nil {
			(*f)()
		}
	}()
	go func() {
		if *shards > 0 {
			c, err := cluster.Open(cluster.Config{
				Dir:      *dir,
				Shards:   *shards,
				Replicas: *replicas,
				Lake:     modellake.Config{Sync: true, Seed: 1},
			})
			if err != nil {
				errc <- fmt.Errorf("open cluster: %w", err)
				return
			}
			closeFn := c.Close
			lakeClose.Store(&closeFn)
			srv.Attach(c)
			fmt.Fprintf(os.Stderr, "modellake: serving %s (%d models, %d shards, %d replicas/shard) on %s\n",
				*dir, c.Count(), *shards, *replicas, *addr)
			return
		}
		lk, err := openLake(*dir)
		if err != nil {
			errc <- fmt.Errorf("open lake: %w", err)
			return
		}
		closeFn := lk.Close
		lakeClose.Store(&closeFn)
		srv.Attach(lk)
		fmt.Fprintf(os.Stderr, "modellake: serving %s (%d models) on %s\n", *dir, lk.Count(), *addr)
	}()
	fmt.Fprintf(os.Stderr, "modellake: listening on %s, opening %s\n", *addr, *dir)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second SIGINT kills hard

	// Graceful shutdown: flip /readyz to draining so load balancers stop
	// sending traffic, then drain in-flight connections.
	fmt.Fprintln(os.Stderr, "modellake: shutdown signal received, draining connections")
	srv.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		hs.Close()
		return fmt.Errorf("drain incomplete after %s: %w", *drainTimeout, err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "modellake: drained, exiting")
	return nil
}

func printHit(lk *modellake.Lake, h modellake.Hit) {
	rec, err := lk.Record(h.ID)
	name := "?"
	if err == nil {
		name = rec.Name
	}
	fmt.Printf("%s  %-24s score=%.4f\n", h.ID, name, h.Score)
}

// domainSeedCLI matches lakegen's name-derived domain seeds so CLI task
// sampling targets the same tasks generated lakes train on.
func domainSeedCLI(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

type flagList []string

func (f *flagList) String() string     { return strings.Join(*f, ",") }
func (f *flagList) Set(s string) error { *f = append(*f, s); return nil }
