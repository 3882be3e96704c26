package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"modellake/internal/cluster"
	"modellake/internal/lake"
	"modellake/internal/server"
)

// target is a served lake: either deployment shape the server fronts.
type target interface {
	server.LakeAPI
	Close() error
}

// openTarget opens dir the way `modellake serve` does for the workload's
// kind. writer adds the durable-write settings of the write workload.
func openTarget(kind, dir string, writer bool) (target, error) {
	switch kind {
	case "flat":
		return lake.Open(lake.Config{Dir: dir, Seed: 1})
	case "pqdisk":
		cfg := lake.Config{Dir: dir, Seed: 1, PQSubspaces: 8,
			DiskResidentVectors: true, DiskResidentPostings: true}
		if writer {
			// A low merge threshold so the timed writes cross about four
			// keyword merges per shard; Sync so every batch pays its WAL
			// fsync like a durable deployment.
			cfg.Sync, cfg.KeywordMergeThreshold = true, 64
		}
		return lake.Open(cfg)
	case "cluster":
		return cluster.Open(cluster.Config{Dir: dir, Shards: 2, Replicas: 1,
			Lake: lake.Config{Sync: true, Seed: 1}})
	}
	return nil, fmt.Errorf("unknown lake kind %q", kind)
}

// openReference opens the plain in-memory lake answers are checked against:
// float64 flat scan, RAM keyword tiers, no query cache.
func openReference() (*lake.Lake, error) {
	return lake.Open(lake.Config{Seed: 1, DisableQueryCache: true})
}

const tmpfsMagic = 0x01021994

// storageRoot picks where lake directories live. /dev/shm when it is a
// writable tmpfs: on this class of VM an fsync to the virtio disk costs
// 2–6 ms and varies 2× between runs, which would make set-up time and every
// write metric a measurement of the hypervisor's disk queue. What a device
// would charge is reported as counts instead. Otherwise a directory inside
// the working directory, so nothing is written outside the checkout.
func storageRoot() (dir, kind string, err error) {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if syscall.Statfs(shm, &st) == nil && int64(st.Type) == tmpfsMagic {
		if probe, perr := os.MkdirTemp(shm, "lakeload-probe-*"); perr == nil {
			os.Remove(probe)
			return shm, "tmpfs", nil
		}
	}
	dir = filepath.Join(".bench_build", "lakes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("storage root: %w", err)
	}
	return dir, "disk", nil
}

// ingestChunks preloads items through IngestAll in 512-model chunks, checks
// the minted IDs are the ones the schedule will ask for, and returns each
// chunk's rate in models per second.
func ingestChunks(t server.LakeAPI, p *population) ([]float64, error) {
	const chunk = 512
	var rates []float64
	for i := 0; i < p.preload; i += chunk {
		j := min(i+chunk, p.preload)
		start := time.Now()
		recs, errs := t.IngestAllContext(context.Background(), p.items[i:j], 0)
		rates = append(rates, float64(j-i)/time.Since(start).Seconds())
		for k, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("preload %s: %w", p.items[i+k].Opts.Name, err)
			}
			if recs[k].ID != modelID(i+k) {
				return nil, fmt.Errorf("preload %s: minted %s, schedule expects %s",
					p.items[i+k].Opts.Name, recs[k].ID, modelID(i+k))
			}
		}
	}
	return rates, nil
}

// serve starts the real handler on a loopback listener with cmdServe's
// timeouts. The returned stop drains and closes the listener; calling it
// again does nothing.
func serve(t target) (base string, stop func() error, err error) {
	cfg := server.DefaultConfig()
	cfg.AccessLog = io.Discard
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{
		Handler:           server.NewWith(t, cfg).Handler(),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	var once sync.Once
	stop = func() (err error) {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err = hs.Shutdown(ctx); err != nil {
				hs.Close()
				err = fmt.Errorf("drain server: %w", err)
			} else if served := <-done; !errors.Is(served, http.ErrServerClosed) {
				err = served
			}
		})
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// dirBytes sums the sizes of regular files under dir whose slash-separated
// relative path contains match ("" matches all).
func dirBytes(dir, match string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, _ := filepath.Rel(dir, path)
		if match != "" && !strings.Contains("/"+filepath.ToSlash(rel), match) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
