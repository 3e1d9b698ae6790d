package main

// layerUnits names every per-layer metric with its unit. A layer that does
// no such work in a workload reports 0 there (bench/README.md maps each
// metric to the workload that exercises it).
var layerUnits = map[string]string{
	// From wsnlocd's /metrics.json, window deltas.
	"serve.mem_hit_frac":       "ratio",
	"serve.disk_hit_frac":      "ratio",
	"serve.not_modified_frac":  "ratio",
	"serve.coalesced":          "count",
	"exec.wait_mean_ms":        "ms",
	"exec.jobs_per_request":    "ratio",
	"exec.rejected":            "count",
	"core.bp_mean_ms":          "ms",
	"core.hopflood_mean_ms":    "ms",
	"core.censored_frac":       "ratio",
	"bayes.conv_ms_per_run":    "ms",
	"sweep.cache_hit_frac":     "ratio",
	"sweep.cell_mean_ms":       "ms",
	"runtime.alloc_mb_per_req": "MB",
	"runtime.gc_pause_ms":      "ms",
	// From the window's responses and the generator.
	"serve.hit_p50_ms":  "ms",
	"serve.miss_p50_ms": "ms",
	"serve.p99_ms":      "ms",
	"serve.wire_kb":     "KB",
	"gen.late_p99_ms":   "ms",
	"gen.backlog_end":   "count",
	// From the traced replay.
	"alg.decode_hash_us":       "us",
	"topology.build_ms":        "ms",
	"core.setup_ms":            "ms",
	"core.hopflood_ms":         "ms",
	"core.bp_ms":               "ms",
	"core.ns_per_node_round":   "ns",
	"bayes.conv_ms":            "ms",
	"sim.speedup_w2":           "ratio",
	"sim.serial_frac":          "ratio",
	"exec.wait_ms":             "ms",
	"serve.encode_ms":          "ms",
	"sweep.cache_load_us":      "us",
	"sweep.cache_store_us":     "us",
	"sweep.summary_ms":         "ms",
	"obs.trace_overhead_frac":  "ratio",
	"trace.reconcile_gap_frac": "ratio",
}

// scrapeLayers derives the per-layer metrics of wsnlocd's own instruments
// over the window.
func (b *bench) scrapeLayers() map[string]float64 {
	d := b.scraped
	c := d.counter
	requests := c("wsnloc_serve_requests_total")
	memHits, memMisses := c("wsnloc_serve_memo_mem_hits_total"), c("wsnloc_serve_memo_mem_misses_total")
	diskHits, diskMisses := c("wsnloc_serve_memo_disk_hits_total"), c("wsnloc_serve_memo_disk_misses_total")
	censored := c("wsnloc_bncl_censored_total")
	sweepHits, sweepMisses := c("wsnloc_sweep_cache_hits_total"), c("wsnloc_sweep_cache_misses_total")
	convMS := 1e3 * (d.sum("wsnloc_bncl_conv_seconds_sparse") + d.sum("wsnloc_bncl_conv_seconds_fft"))
	return map[string]float64{
		"serve.mem_hit_frac":       ratio(memHits, memHits+memMisses),
		"serve.disk_hit_frac":      ratio(diskHits, diskHits+diskMisses),
		"serve.not_modified_frac":  ratio(c("wsnloc_serve_not_modified_total"), requests),
		"serve.coalesced":          c("wsnloc_serve_coalesced_total"),
		"exec.wait_mean_ms":        1e3 * d.mean("wsnloc_exec_wait_seconds"),
		"exec.jobs_per_request":    ratio(c("wsnloc_exec_jobs_total"), requests),
		"exec.rejected":            c("wsnloc_exec_rejected_total"),
		"core.bp_mean_ms":          1e3 * d.mean("wsnloc_bncl_phase_seconds_bp"),
		"core.hopflood_mean_ms":    1e3 * d.mean("wsnloc_bncl_phase_seconds_hopflood"),
		"core.censored_frac":       ratio(censored, censored+c("wsnloc_messages_total")),
		"bayes.conv_ms_per_run":    ratio(convMS, c("wsnloc_bncl_runs_total")),
		"sweep.cache_hit_frac":     ratio(sweepHits, sweepHits+sweepMisses),
		"sweep.cell_mean_ms":       1e3 * d.mean("wsnloc_sweep_cell_seconds"),
		"runtime.alloc_mb_per_req": ratio(c("wsnloc_alloc_bytes_total"), requests) / (1 << 20),
		"runtime.gc_pause_ms":      1e3 * d.mean("wsnloc_gc_pause_seconds"),
	}
}

// responseLayers derives per-layer metrics from the window's responses and
// the generator's schedule keeping.
func (b *bench) responseLayers() map[string]float64 {
	var hits, misses []float64
	var wire float64
	for _, s := range b.window {
		switch s.verdict {
		case "hit":
			hits = append(hits, ms(s.latency))
		case "miss":
			misses = append(misses, ms(s.latency))
		}
		wire += float64(s.wire)
	}
	return map[string]float64{
		"serve.hit_p50_ms":  median(hits),
		"serve.miss_p50_ms": median(misses),
		"serve.p99_ms":      percentile(b.latencies(), 0.99),
		"serve.wire_kb":     ratio(wire, float64(len(b.window))) / 1024,
		"gen.late_p99_ms":   percentile(msOf(b.gen.late), 0.99),
		"gen.backlog_end":   float64(b.gen.backlog),
	}
}
