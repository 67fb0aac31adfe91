//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` repeats them; a self-test keeps the two equal.

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, the same on every workload, each with the share of
/// the parent's median by which it may worsen.
pub static END_TO_END: [(MetricDef, f64); 6] = [
    (def("wall_s", "s", "lower"), 0.25),
    (def("work_per_s", "1/s", "higher"), 0.25),
    (def("slowest_point_s", "s", "lower"), 0.25),
    (def("cpu_s", "s", "lower"), 0.25),
    (def("peak_rss_mb", "MiB", "lower"), 0.20),
    (def("setup_s", "s", "lower"), 0.25),
];

/// The six library scenarios, in library order.
pub const SCENARIOS: [&str; 6] = ["diurnal", "flash", "overload", "tenants", "crash", "degraded"];

/// Per-layer metrics. The first block comes from the isolated drives and
/// reads the same whatever the workload; the rest come from the traced
/// pass of the workload that was run, and are 0 for a layer it bypasses.
/// Rows marked *sim* are simulated counts: they repeat exactly.
pub static PER_LAYER: &[MetricDef] = &[
    // sparse
    def("sparse.gen.edges_per_s", "1/s", "higher"),
    def("sparse.to_csr.nnz_per_s", "1/s", "higher"),
    def("sparse.spgemm.rowwise.flops_per_s", "1/s", "higher"),
    def("sparse.spgemm.outer.flops_per_s", "1/s", "higher"),
    def("sparse.spgemm.tiled4.flops_per_s", "1/s", "higher"),
    def("sparse.spgemm.inner.flops_per_s", "1/s", "higher"),
    def("sparse.multiply_counting.flops_per_s", "1/s", "higher"),
    // sim, mem, noc
    def("sim.latency_histogram.record_per_s", "1/s", "higher"),
    def("sim.latency_histogram.merge_per_s", "1/s", "higher"),
    def("mem.controller.streaming.req_per_s", "1/s", "higher"),
    def("mem.controller.random.req_per_s", "1/s", "higher"),
    def("noc.torus.uniform.packets_per_s", "1/s", "higher"),
    def("noc.torus.hotspot.packets_per_s", "1/s", "higher"),
    // chip
    def("chip.compile.instr_per_s", "1/s", "higher"),
    def("chip.neuramem.rolling.hacc_per_s", "1/s", "higher"),
    def("chip.neuramem.barrier.hacc_per_s", "1/s", "higher"),
    def("chip.mapping.ring.lookups_per_s", "1/s", "higher"),
    def("chip.mapping.modular.lookups_per_s", "1/s", "higher"),
    def("chip.mapping.random-table.lookups_per_s", "1/s", "higher"),
    def("chip.mapping.drhm.lookups_per_s", "1/s", "higher"),
    def("chip.profiled.overhead", "ratio", "lower"),
    def("chip.analytic.evals_per_s", "1/s", "higher"),
    def("chip.features.nnz_per_s", "1/s", "higher"),
    def("baselines.estimate.evals_per_s", "1/s", "higher"),
    // lab
    def("lab.runner.dispatch_ns", "ns", "lower"),
    def("lab.report.emit_mb_per_s", "MB/s", "higher"),
    def("lab.report.parse_mb_per_s", "MB/s", "higher"),
    def("lab.trend.diff.records_per_s", "1/s", "higher"),
    // serve
    def("serve.arrivals.gen.req_per_s", "1/s", "higher"),
    def("serve.engine.open_serial.req_per_s", "1/s", "higher"),
    def("serve.engine.open_epochs.req_per_s", "1/s", "higher"),
    def("serve.engine.closed_serial.req_per_s", "1/s", "higher"),
    def("serve.engine.closed_lanes.req_per_s", "1/s", "higher"),
    def("serve.engine.epochs.cpu_ratio", "ratio", "lower"),
    def("serve.engine.traced.overhead", "ratio", "lower"),
    def("serve.telemetry.timeline.events_per_s", "1/s", "higher"),
    def("serve.outcome.records_s", "s", "lower"),
    def("serve.outcome.bytes_per_req", "B/req", "lower"),
    // the traced pass: where the host time went
    def("trace.overhead", "ratio", "lower"),
    def("trace.coverage", "ratio", "higher"),
    def("chip.run.share", "ratio", "lower"),
    def("chip.model.share", "ratio", "lower"),
    def("sparse.share", "ratio", "lower"),
    def("serve.share", "ratio", "lower"),
    def("baselines.share", "ratio", "lower"),
    def("lab.share", "ratio", "lower"),
    def("bench.share", "ratio", "lower"),
    def("lab.runner.efficiency", "ratio", "higher"),
    def("chip.run.t4.cycles_per_s", "1/s", "higher"),
    def("chip.run.t16.cycles_per_s", "1/s", "higher"),
    def("chip.run.t64.cycles_per_s", "1/s", "higher"),
    def("chip.run.slowest.cycles_per_s", "1/s", "higher"),
    def("chip.run.ns_per_hacc", "ns", "lower"),
    def("serve.engine.diurnal.req_per_s", "1/s", "higher"),
    def("serve.engine.flash.req_per_s", "1/s", "higher"),
    def("serve.engine.overload.req_per_s", "1/s", "higher"),
    def("serve.engine.tenants.req_per_s", "1/s", "higher"),
    def("serve.engine.crash.req_per_s", "1/s", "higher"),
    def("serve.engine.degraded.req_per_s", "1/s", "higher"),
    // sim: simulated counts of the traced pass
    def("chip.sim.total_cycles", "cycles", "lower"),
    def("chip.sim.mmh", "count", "lower"),
    def("chip.sim.hacc", "count", "lower"),
    def("chip.sim.busy_frac", "ratio", "higher"),
    def("chip.sim.stall_frac", "ratio", "lower"),
    def("chip.sim.idle_frac", "ratio", "lower"),
    def("chip.sim.t64.idle_frac", "ratio", "lower"),
    def("chip.sim.hashpad_full_stalls", "cycles", "lower"),
    def("mem.bytes_read", "bytes", "lower"),
    def("mem.mean_latency_cycles", "cycles", "lower"),
    def("noc.packets", "count", "lower"),
    def("noc.mean_hops", "hops", "lower"),
    def("serve.sim.offered", "count", "higher"),
    def("serve.sim.served", "count", "higher"),
    def("serve.sim.shed", "count", "lower"),
    def("serve.sim.redispatched", "count", "lower"),
    // accuracy of the analytic tier against the cycle tier, on sizes not used in its fit
    def("chip.analytic.mean_abs_rel_err", "ratio", "lower"),
    def("chip.analytic.worst_abs_rel_err", "ratio", "lower"),
];

/// Measured values, kept in table order by [`Values::in_order`].
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// `(def, value)` for every metric of `defs`, in their order.
    ///
    /// # Panics
    ///
    /// Panics when a metric was never set or a value has no table row: the
    /// printed names must equal the table's.
    pub fn in_order<'a>(
        &self,
        defs: impl IntoIterator<Item = &'a MetricDef>,
    ) -> Vec<(&'a MetricDef, f64)> {
        let rows: Vec<_> = defs
            .into_iter()
            .map(|d| {
                let value = self.0.iter().find(|(name, _)| name == d.name);
                (d, value.unwrap_or_else(|| panic!("metric {} was never measured", d.name)).1)
            })
            .collect();
        for (name, _) in &self.0 {
            assert!(rows.iter().any(|(d, _)| d.name == name), "metric {name} has no table row");
        }
        rows
    }
}
