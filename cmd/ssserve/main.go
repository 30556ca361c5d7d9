// Command ssserve is the HTTP query server: it loads (or builds) a
// checksummed index/store artifact pair and serves scale/shift-
// invariant similarity queries with full observability — Prometheus
// metrics, expvar, pprof, and a ring of recent per-query traces — and
// overload protection: deadline-aware admission control and hot artifact
// reload.  An index artifact it cannot serve as it is, it rebuilds from
// the store before it listens.
//
// One frontend (frontend.go) serves two modes: a shard answers from its
// own artifacts (server.go), a coordinator from a fleet of shards
// (coord.go).  Both share the middleware, the operational routes, the
// serving loop and the /search response schema (cluster.SearchWire).
//
// Endpoints:
//
//	/search        GET: run a query (see parseSearchRequest for params)
//	               POST: run a JSON batch of queries
//	/healthz       process health
//	/livez         liveness only (restart signal)
//	/readyz        readiness (drain/reload/WAL aware; routing signal)
//	/admin/reload  POST: reload artifacts; SIGHUP does the same
//	/admin/checkpoint  POST: flush a durable checkpoint now (-checkpoint)
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar JSON (includes the metrics snapshot)
//	/debug/pprof/  the standard Go profiler endpoints
//	/debug/traces  retained query traces (?id=, ?min_ms=, ?error=1)
//	/debug/events  wide per-request events, cursor-drained (?since=, ?max=)
//	/shardinfo     this instance's cluster identity (fingerprint, shape)
//	/window        raw sequence values (cluster-internal query resolution)
//
// Example:
//
//	ssgen -companies 100 -binary -o prices.store
//	ssserve -store prices.store -index prices.index -addr :8080
//	curl 'localhost:8080/search?seq=3&start=25&eps_frac=0.05'
//
// With -coordinator the process serves no artifacts of its own:
// it validates a shard fleet against an SSMAN cluster manifest
// (ssgen -shards) and scatter-gathers every query across it, merging
// exactly and reporting per-shard coverage.  It serves the same routes
// less /append, /admin/*, /shardinfo and /window, and no POST /search.
//
//	ssgen -companies 100 -binary -shards 3 -o cluster/
//	ssserve -store cluster/shard0/store.bin -addr :8081 &
//	ssserve -store cluster/shard1/store.bin -addr :8082 &
//	ssserve -store cluster/shard2/store.bin -addr :8083 &
//	ssserve -coordinator -cluster-manifest cluster/cluster.ssman \
//	        -shard-addrs localhost:8081,localhost:8082,localhost:8083 -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scaleshift/internal/ckpt"
	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/geom"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
	"scaleshift/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ssserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ssserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataFile := fs.String("data", "", "CSV database (default: generate synthetic)")
	storeFile := fs.String("store", "", "binary store artifact written by ssgen -binary (overrides -data)")
	companies := fs.Int("companies", 100, "synthetic companies when -data is unset")
	days := fs.Int("days", 650, "synthetic days when -data is unset")
	seed := fs.Int64("seed", 1, "synthetic data seed")
	window := fs.Int("window", 128, "index window length n")
	fc := fs.Int("fc", 3, "DFT coefficients f_c")
	spheres := fs.Bool("spheres", false, "use the bounding-spheres penetration heuristic")
	fs.Bool("bulk", false, "accepted and ignored: the index is always built with STR bulk loading")
	indexCache := fs.String("index", "", "index artifact path (load when present, save after building)")
	appendMode := fs.Bool("append", false, "enable live ingest via POST /append (hot reload then requires -checkpoint)")
	walPath := fs.String("wal", "", "write-ahead log path for -append durability (empty: appends are not durable)")
	ckptPath := fs.String("checkpoint", "", "checkpoint artifact base path for -append (bounds recovery to the WAL tail; keeps a .prev fallback)")
	ckptWALBytes := fs.Int64("checkpoint-wal-bytes", 64<<20, "take a checkpoint when the retained WAL exceeds this many bytes (0 disables)")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "take a checkpoint when the last is older than this and appends landed since (0 disables)")
	ckptMaxLag := fs.Duration("checkpoint-max-lag", 0, "/readyz reports not-ready when checkpoint age exceeds this (0: lag never blocks readiness)")
	traceRing := fs.Int("trace-ring", 128, "recent query traces retained for /debug/traces")
	eventRing := fs.Int("event-ring", 256, "wide per-request events retained for /debug/events")
	eventLog := fs.String("event-log", "", "append wide events as JSONL to this file (never blocks serving; drops are counted)")
	coordinator := fs.Bool("coordinator", false, "serve as a scatter-gather coordinator over a shard fleet (requires -shard-addrs and -cluster-manifest)")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard base URLs, ordered by manifest shard id")
	clusterManifest := fs.String("cluster-manifest", "", "SSMAN cluster manifest written by ssgen -shards")
	shardTimeout := fs.Duration("shard-timeout", 2*time.Second, "per-attempt deadline for one shard call")
	shardRetries := fs.Int("shard-retries", 1, "retries after a retryable shard failure")
	shardBackoff := fs.Duration("shard-backoff", 25*time.Millisecond, "base backoff between shard retries (exponential, jittered)")
	hedgeAfter := fs.Duration("hedge-after", 0, "launch a hedged shard request after this long (0 disables tail hedging)")
	shardConnect := fs.Duration("shard-connect-timeout", 30*time.Second, "how long startup waits for every shard to validate against the manifest")
	readyQuorum := fs.Float64("ready-quorum", 0.5, "coordinator /readyz reports ready when at least this fraction of shards is ready")
	serveFlags := cliutil.AddServeFlags(fs)
	obsFlags := cliutil.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := serveFlags.Validate(); err != nil {
		return err
	}
	logger, err := obsFlags.Setup()
	if err != nil {
		return err
	}
	// A query server exists to be observed: the metrics layer is always
	// on here, not opt-in as in the batch CLIs.
	obs.Enable()
	cliutil.PublishBuildInfo(obs.Default)
	obs.Default.PublishExpvar("scaleshift")
	tracer := obs.NewTracer(*traceRing)
	// The wide-event ring always exists; the JSONL tee (-event-log) is
	// opt-in and set up by serve.
	events := obs.NewEventRing(*eventRing)
	if *coordinator {
		if *storeFile != "" || *dataFile != "" || *appendMode {
			return fmt.Errorf("-coordinator serves only from shards; -store, -data, and -append do not apply")
		}
		if *shardAddrs == "" || *clusterManifest == "" {
			return fmt.Errorf("-coordinator requires -shard-addrs and -cluster-manifest")
		}
		man, err := cluster.LoadManifest(*clusterManifest)
		if err != nil {
			return err
		}
		// Armed before fleet validation so an operator can abort a
		// coordinator stuck waiting for shards.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		addrs := splitAddrs(*shardAddrs)
		logger.Info("validating shard fleet", "shards", len(addrs), "manifest", *clusterManifest)
		coord, err := cluster.NewCoordinator(ctx, cluster.CoordinatorConfig{
			Manifest: man,
			Addrs:    addrs,
			Shard: cluster.ShardConfig{
				AttemptTimeout: *shardTimeout,
				Retries:        *shardRetries,
				BackoffBase:    *shardBackoff,
				HedgeAfter:     *hedgeAfter,
			},
			ConnectTimeout: *shardConnect,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		srv, err := newCoordServer(coordConfig{
			coord:  coord,
			tracer: tracer,
			logger: logger,
			serve:  *serveFlags,
			events: events,
			quorum: *readyQuorum,
		})
		if err == nil {
			err = srv.serve(ctx, *addr, *eventLog)
		}
		if err != nil {
			return err
		}
		return obsFlags.Finish()
	}
	if *ckptPath != "" && !*appendMode {
		return fmt.Errorf("-checkpoint requires -append (there is nothing to checkpoint without live ingest)")
	}

	opts := core.DefaultOptions()
	opts.WindowLen = *window
	opts.Coefficients = *fc
	if *spheres {
		opts.Strategy = geom.BoundingSpheres
	}

	// loadSeed is the cold-start data path: the configured store (or
	// synthetic data) plus a built-or-loaded index artifact.  In append
	// mode with -checkpoint it only runs when no checkpoint recovers —
	// a recovered checkpoint already embeds the grown store.
	loadSeed := func() (*store.Store, *core.Index, string, error) {
		st, err := cliutil.LoadStore(*storeFile, *dataFile, *companies, *days, *seed)
		if err != nil {
			return nil, nil, "", err
		}
		ix, how, err := cliutil.OpenIndex(st, opts, *indexCache, logger)
		return st, ix, how, err
	}

	var (
		st      *store.Store
		serving *core.Index
		how     string
		ingest  *ingestState
		ckptr   *checkpointer
	)
	// Hot reload from artifacts needs a durable artifact pair; synthetic
	// and CSV servers run without it.  In append mode the artifact would
	// be stale the moment an append lands, so reload goes through the
	// checkpoint barrier instead (reloadAppend) when -checkpoint is set.
	var reload *reloadConfig
	if !*appendMode {
		var ix *core.Index
		var err error
		st, ix, how, err = loadSeed()
		if err != nil {
			return err
		}
		serving = ix
		logger.Info("index ready",
			"windows", ix.WindowCount(), "pages", ix.IndexPageCount(),
			"height", ix.TreeHeight(), "how", how,
			"sequences", st.NumSequences(), "values", st.TotalValues())
		if *storeFile != "" {
			reload = &reloadConfig{
				StorePath: *storeFile,
				IndexPath: *indexCache,
				Opts:      opts,
				Seed:      *seed,
			}
		}
	} else {
		// Recovery-first startup: a loadable checkpoint replaces the seed
		// path entirely and bounds the WAL replay below to the tail past
		// its offset.  Every rejected artifact on the way is logged loudly
		// — falling back is designed behavior, doing so silently is not.
		recoveryStart := time.Now()
		var seg *core.Index
		var recovered *ckpt.Result
		if *ckptPath != "" {
			res, warns, err := ckpt.Recover(*ckptPath)
			for _, w := range warns {
				logger.Warn("recovery: " + w.String())
			}
			switch {
			case err == nil:
				recovered = res
				st, seg = res.Store, res.Seg
				how = fmt.Sprintf("recovered from checkpoint %s (generation %d, wal offset %d)",
					res.Source, res.Meta.Generation, res.Meta.WALOffset)
				rebuilt := 0
				for _, w := range warns {
					if w.Rebuilt {
						rebuilt++
					}
				}
				if rebuilt > 0 {
					how += fmt.Sprintf("; rebuilt %d segment(s) from its store, which the next checkpoint writes", rebuilt)
				}
			case errors.Is(err, ckpt.ErrNoCheckpoint) && len(warns) == 0:
				logger.Info("no checkpoint artifact yet; building from seed data", "path", *ckptPath)
			case errors.Is(err, ckpt.ErrNoCheckpoint):
				// Artifacts existed but none loads.  Seed + full WAL replay
				// can still reconstruct everything — validateRecovery below
				// refuses if the WAL no longer reaches back to offset zero.
				logger.Warn("every checkpoint artifact was rejected; attempting full WAL replay from seed data",
					"path", *ckptPath, "rejected", len(warns))
			default:
				return err
			}
		}
		if seg == nil {
			var err error
			if st, seg, how, err = loadSeed(); err != nil {
				return err
			}
		}
		var log *wal.Log
		var recs []wal.Record
		var err error
		if *walPath != "" {
			log, recs, err = wal.Open(*walPath)
			if err != nil {
				return fmt.Errorf("-wal %s: %w", *walPath, err)
			}
			defer log.Close()
		}
		if err := validateRecovery(recovered, log); err != nil {
			return err
		}
		var ckptOffset int64
		if recovered != nil {
			ckptOffset = recovered.Meta.WALOffset
		}
		ingest, err = newIngestState(seg, log, recs, ckptOffset)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", *walPath, err)
		}
		seg.StartCompactor()
		serving = seg
		replayed := 0
		for _, rec := range recs {
			if rec.End > ckptOffset {
				replayed++
			}
		}
		ckptGen := int64(0)
		if recovered != nil {
			ckptGen = recovered.Meta.Generation
		}
		obs.Default.Gauge("scaleshift_recovery_replayed_records",
			"WAL records replayed at startup past the recovered checkpoint's offset.").Set(float64(replayed))
		obs.Default.Gauge("scaleshift_recovery_duration_seconds",
			"Wall time of startup recovery: checkpoint load plus WAL replay.").Set(time.Since(recoveryStart).Seconds())
		obs.Default.Gauge("scaleshift_recovery_checkpoint_generation",
			"Generation of the checkpoint startup recovered from (0: seed start).").Set(float64(ckptGen))
		logger.Info("live ingest enabled",
			"wal", *walPath, "replayed", replayed, "how", how,
			"windows", seg.WindowCount(), "generation", seg.Generation())
		if *ckptPath != "" {
			ckptr = newCheckpointer(checkpointConfig{
				Path:     *ckptPath,
				WALBytes: *ckptWALBytes,
				Interval: *ckptInterval,
				MaxLag:   *ckptMaxLag,
				Seed:     *seed,
			}, ingest, logger, recovered)
		}
	}
	normScale, err := query.SENormScale(st, *window, 500, *seed+2)
	if err != nil {
		return err
	}

	srv, err := newServer(serverConfig{
		snap:   &snapshot{ix: serving, normScale: normScale, how: how, loadedAt: time.Now()},
		tracer: tracer,
		events: events,
		logger: logger,
		serve:  *serveFlags,
		reload: reload,
		ingest: ingest,
		ckpt:   ckptr,
	})
	if err != nil {
		return err
	}

	// SIGHUP triggers a hot artifact reload; a rejected reload keeps the
	// old snapshot serving and only logs.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if reload == nil && ckptr == nil {
				logger.Warn("SIGHUP ignored: no -store artifact or -checkpoint to reload from")
				continue
			}
			if err := srv.Reload(); err != nil {
				logger.Error("SIGHUP reload rejected", "err", err)
			}
		}
	}()

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if ckptr != nil {
		go ckptr.loop(ctx)
	}
	if err := srv.serve(ctx, *addr, *eventLog); err != nil {
		return err
	}
	return obsFlags.Finish()
}
