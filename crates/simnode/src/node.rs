//! The node execution engine.
//!
//! A [`Node`] owns the cores, the MSR file, the RAPL controller and all
//! accounting state. A driver assigns [`CoreWork`] to cores and advances
//! simulated time with [`Node::step`] (one quantum) or [`Node::step_until`]
//! (to a deadline or the next completion/wake, whichever comes first); each
//! quantum retires work according to the current frequency/duty/uncore
//! settings, integrates power into the energy counter, and accumulates
//! hardware counters. RAPL re-evaluates its actuators on its own control
//! period.
//!
//! Between events the per-quantum update is *identical* from quantum to
//! quantum: while no core completes or wakes, no RAPL period boundary
//! passes, no fault latches and the thermal throttle holds steady, packet
//! state decays by the same fraction of remaining work each quantum and
//! every counter/energy increment is a constant. [`Node::step_until`]
//! exploits this by computing the number of whole quanta to the nearest
//! such *event horizon* and applying the k-quantum closed form in one
//! shot, falling back to the exact single-quantum path within a quantum
//! of any horizon. It agrees with a [`Node::step`] loop to within 1e-9
//! relative on counters, energy and progress (the only differences are
//! floating-point summation order), and bit for bit whenever no
//! macro-step fires.
//!
//! Both paths treat a run of adjacent cores holding bit-identical work as
//! one unit: they evaluate and advance only the run's first core, and the
//! others follow lazily. [`Node::assign_all`] makes the whole node one run
//! with a single store, and [`Node::work`] and the other readers resolve
//! a core through its run.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::config::NodeConfig;
use crate::counters::Counters;
use crate::ddcm::DutyCycle;
use crate::energy::EnergyMeter;
use crate::msr::{
    decode_perf_ctl, MsrDevice, MsrError, PowerLimit, RaplUnits, IA32_CLOCK_MODULATION,
    IA32_PERF_CTL, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use crate::power::NodeTables;
use crate::rapl::{ActivitySnapshot, Actuation, RaplController};
use crate::thermal::ThermalState;
use crate::time::{round_u64, secs, Nanos};

/// A unit of application work: some compute cycles interleaved with some
/// memory traffic, retiring some number of instructions.
///
/// Execution time is `cycles / f_eff + misses · line / bw(uncore)` — the
/// overlap-free compute+memory split that underlies the paper's Eq. (1):
/// the compute term scales with frequency, the memory term does not.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkPacket {
    /// Core cycles of computation.
    pub cycles: f64,
    /// L3 misses generated.
    pub misses: f64,
    /// Instructions retired by the packet.
    pub instructions: f64,
    /// Memory-level parallelism in (0, 1]: the fraction of the per-core
    /// bandwidth ceiling this packet's (possibly dependent) misses can
    /// exploit. Latency-bound codes (OpenMC) have low MLP — each miss
    /// stalls longer while moving the same bytes, so they burn stall time
    /// without burning bandwidth (or uncore power).
    #[serde(default = "default_mlp")]
    pub mlp: f64,
    /// This packet's contribution to node memory pressure while in flight:
    /// nominally its memory-time fraction × MLP. A workload-intrinsic
    /// constant (set by the calibration layer), so shared-bandwidth
    /// contention does not artificially relax when cores slow down.
    #[serde(default = "default_mlp")]
    pub mem_weight: f64,
}

fn default_mlp() -> f64 {
    1.0
}

impl WorkPacket {
    /// A bandwidth-streaming packet (MLP = 1, full memory weight).
    pub fn new(cycles: f64, misses: f64, instructions: f64) -> Self {
        Self {
            cycles,
            misses,
            instructions,
            mlp: default_mlp(),
            mem_weight: default_mlp(),
        }
    }

    /// Validate non-negativity (zero packets are legal no-ops).
    pub fn validate(&self) {
        assert!(
            self.cycles >= 0.0 && self.misses >= 0.0 && self.instructions >= 0.0,
            "work packet fields must be non-negative"
        );
        assert!(self.mlp > 0.0 && self.mlp <= 1.0, "mlp must be in (0,1]");
        assert!(
            self.mem_weight >= 0.0 && self.mem_weight <= 1.0,
            "mem_weight must be in [0,1]"
        );
    }
}

/// In-flight packet state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketState {
    /// Remaining compute cycles.
    pub cycles_left: f64,
    /// Remaining L3 misses.
    pub misses_left: f64,
    /// Remaining instructions.
    pub inst_left: f64,
    /// Memory-level parallelism of the packet (see [`WorkPacket::mlp`]).
    pub mlp: f64,
    /// Pressure contribution (see [`WorkPacket::mem_weight`]).
    pub mem_weight: f64,
}

impl From<WorkPacket> for PacketState {
    fn from(p: WorkPacket) -> Self {
        p.validate();
        Self {
            cycles_left: p.cycles,
            misses_left: p.misses,
            inst_left: p.instructions,
            mlp: p.mlp,
            mem_weight: p.mem_weight,
        }
    }
}

/// What a core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoreWork {
    /// Nothing assigned; powered but idle.
    Idle,
    /// In a sleep C-state until the given absolute time (cf. `usleep` in the
    /// paper's Listing 1).
    Sleep {
        /// Absolute wake time.
        until: Nanos,
    },
    /// Busy-wait spinning (MPI barrier polling): full dynamic power,
    /// instructions retire at the configured spin IPC, no useful work.
    Spin,
    /// Executing a work packet.
    Compute(PacketState),
}

/// Result of one simulation step ([`Node::step`] or [`Node::step_until`]).
///
/// The node owns one of these and reuses its buffers across steps, so the
/// hot loop allocates nothing; callers that need to keep a result across
/// further steps clone it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepOutcome {
    /// Cores whose packet completed during this step (now idle).
    pub completed: Vec<usize>,
    /// Cores whose sleep elapsed during this step (now idle).
    pub woke: Vec<usize>,
}

impl StepOutcome {
    /// No completion or wake happened.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty() && self.woke.is_empty()
    }

    fn clear(&mut self) {
        self.completed.clear();
        self.woke.clear();
    }
}

/// One run's evaluation for the next macro-step, kept at the run's first
/// core (its *head*): recorded by [`Node::macro_quanta`] and read back by
/// [`Node::macro_step`], so each run of bit-identical cores (see
/// [`same_work`]) is evaluated once per macro-step. The heads' `run`
/// lengths also let a reader resolve a core through its head while the
/// run's other cores (its *followers*) lag; the followers' own entries
/// are never read.
#[derive(Debug, Clone, Copy, Default)]
struct CoreScratch {
    /// Number of adjacent cores, starting here, holding bit-identical work.
    run: usize,
    /// Remaining compute time at the step's effective frequency, s.
    t_comp: f64,
    /// Remaining memory time at the step's service rate, s.
    t_mem: f64,
    /// Per-quantum packet-decay fraction, set by the macro step.
    rho: f64,
}

/// Splits `cores` into runs of bit-identical work (see [`same_work`]),
/// recording each run's length at its first core, and returns the node's
/// memory pressure, one [`pressure_weight`] per core in core order.
fn find_runs(cores: &[CoreWork], scratch: &mut [CoreScratch]) -> f64 {
    let mut pressure = 0.0;
    let mut head = 0;
    let mut weight = 0.0;
    for (i, work) in cores.iter().enumerate() {
        if i == 0 || !same_work(work, &cores[i - 1]) {
            // Close the previous run (at i == 0, a placeholder for the first).
            scratch[head].run = i - head;
            head = i;
            weight = pressure_weight(work);
        }
        pressure += weight;
    }
    scratch[head].run = cores.len() - head;
    pressure
}

/// A core's contribution to node memory pressure: the workload-intrinsic
/// weight of an in-flight packet still holding misses.
fn pressure_weight(work: &CoreWork) -> f64 {
    match work {
        CoreWork::Compute(p) if p.misses_left > 0.0 => p.mem_weight,
        _ => 0.0,
    }
}

/// Whether two cores hold bit-identical work, so that every quantity the
/// step derives from them is bit-identical too. Floats are compared by
/// bits, not by value: `0.0 == -0.0` and `NaN != NaN` would both be wrong
/// here.
fn same_work(a: &CoreWork, b: &CoreWork) -> bool {
    match (a, b) {
        (CoreWork::Idle, CoreWork::Idle) | (CoreWork::Spin, CoreWork::Spin) => true,
        (CoreWork::Sleep { until: x }, CoreWork::Sleep { until: y }) => x == y,
        (CoreWork::Compute(p), CoreWork::Compute(q)) => {
            p.cycles_left.to_bits() == q.cycles_left.to_bits()
                && p.misses_left.to_bits() == q.misses_left.to_bits()
                && p.inst_left.to_bits() == q.inst_left.to_bits()
                && p.mlp.to_bits() == q.mlp.to_bits()
                && p.mem_weight.to_bits() == q.mem_weight.to_bits()
        }
        _ => false,
    }
}

/// What every quantum of a macro-step runs at: the constants its pass 1
/// turns each run's state into per-quantum increments with.
#[derive(Debug, Clone, Copy)]
struct QuantumRates {
    /// Quantum length, s.
    dt_s: f64,
    /// Effective core clock (P-state and duty cycle), Hz.
    f_eff_hz: f64,
    /// Top P-state clock, the rate MPERF counts at, Hz.
    fmax_hz: f64,
    /// Dynamic power of a fully active core at this clock, W.
    dyn_w: f64,
    /// Static power of a powered core at this P-state, before leakage, W.
    static_w: f64,
    /// Leakage factor at the step's starting temperature.
    leak0: f64,
    /// How many powered cores a sleeping core counts as.
    sleep_powered: f64,
}

/// Folds a run's per-core increments into the sums for all `n` of its
/// cores with one multiply-add per sum. Against adding them once per core
/// this drifts by a few ulps at most, and only when `n > 1`.
fn add_run(sums: &mut [f64; 11], inc: &[f64; 11], n: usize) {
    let n = n as f64;
    for (sum, inc) in sums.iter_mut().zip(inc) {
        *sum += n * inc;
    }
}

/// Telemetry for the quantum that just executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantumTelemetry {
    /// Package power over the quantum, W.
    pub package_w: f64,
    /// Core-domain share of package power, W.
    pub core_w: f64,
    /// Uncore-domain share of package power, W.
    pub uncore_w: f64,
    /// Effective core frequency (including duty cycling), MHz.
    pub effective_mhz: f64,
    /// Achieved memory traffic, bytes/s.
    pub achieved_bw: f64,
}

/// Deterministic counts of the work the node's stepping engine has done
/// since it was built: how often each stage of a step ran. They depend
/// only on the inputs, never on the host, so they pin a hot-loop change's
/// effect on work done the way `tests/node_bits.rs` pins its outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// RAPL control decisions taken.
    pub rapl_ticks: u64,
    /// Of those, decisions taken under a package cap.
    pub capped_ticks: u64,
    /// Closed-form macro-steps applied by [`Node::step_until`].
    pub macro_steps: u64,
    /// Single quanta executed on the exact path.
    pub quanta: u64,
    /// Searches for runs of adjacent cores holding bit-identical work.
    pub run_searches: u64,
    /// Runs evaluated by macro-steps: one per run per macro-step.
    pub run_evals: u64,
    /// Fit predicates the RAPL controller evaluated while choosing its
    /// P-state, duty cycle and uncore level (see
    /// [`RaplController::fit_probes`]).
    pub fit_probes: u64,
    /// Register-file and clock calls the node's MSR device forwarded to
    /// its backend, the node's own and its control software's alike (see
    /// [`MsrDevice::calls`]).
    pub msr_calls: u64,
}

impl std::ops::Add for WorkCounts {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            rapl_ticks: self.rapl_ticks + o.rapl_ticks,
            capped_ticks: self.capped_ticks + o.capped_ticks,
            macro_steps: self.macro_steps + o.macro_steps,
            quanta: self.quanta + o.quanta,
            run_searches: self.run_searches + o.run_searches,
            run_evals: self.run_evals + o.run_evals,
            fit_probes: self.fit_probes + o.fit_probes,
            msr_calls: self.msr_calls + o.msr_calls,
        }
    }
}

impl std::iter::Sum for WorkCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// The simulated node.
///
/// ```
/// use simnode::config::NodeConfig;
/// use simnode::node::{CoreWork, Node, WorkPacket};
///
/// let mut node = Node::new(NodeConfig::default());
/// node.set_package_cap(Some(90.0)).unwrap(); // programs MSR_PKG_POWER_LIMIT
/// node.assign(0, CoreWork::Compute(WorkPacket::new(3.3e7, 0.0, 5e7).into()));
/// while !node.step().completed.contains(&0) {}
/// // ~10 ms of compute at fmax, stretched by the cap's settling P-state.
/// assert!(node.now() >= 10_000_000);
/// assert!(node.total_energy() > 0.0);
/// ```
#[derive(Debug)]
pub struct Node {
    cfg: NodeConfig,
    now: Nanos,
    msr: MsrDevice,
    rapl: RaplController,
    actuation: Actuation,
    cores: Vec<CoreWork>,
    counters: Counters,
    energy: EnergyMeter,
    telemetry: QuantumTelemetry,
    /// Activity accumulated since the last RAPL control decision.
    acc_busy_weight: f64,
    acc_powered: f64,
    acc_bytes: f64,
    acc_quanta: u64,
    thermal: Option<ThermalState>,
    next_rapl: Nanos,
    /// Per-P-state and per-uncore-level lookups (see [`NodeTables`]),
    /// shared by the nodes built from one configuration.
    tables: Arc<NodeTables>,
    /// Reusable step result; cleared at the start of every step.
    outcome: StepOutcome,
    /// Reusable per-core macro-step evaluations (see [`CoreScratch`]).
    scratch: Vec<CoreScratch>,
    /// The runs recorded in `scratch` and `pressure` still describe
    /// `cores` (followers possibly lagging, see `followers_stale`), so
    /// neither [`Node::macro_quanta`] nor [`Node::step_quantum`] need look
    /// for runs again.
    runs_fresh: bool,
    /// Some run's followers lag its head: macro-steps, exact quanta and
    /// [`Node::assign_all`] write only the head, and readers resolve a
    /// core through its run. [`Node::sync_followers`] catches the rest up
    /// before a per-core write or a new run search; while this is set, the
    /// heads' `scratch` runs cover every core.
    followers_stale: bool,
    /// Node memory pressure of the runs in `scratch` (see [`find_runs`]).
    pressure: f64,
    /// Decoded RAPL registers (see [`RaplRegs`]).
    regs: RaplRegs,
    /// Stage counts; `fit_probes` and `msr_calls` are read from the
    /// controller and the MSR device instead.
    work: WorkCounts,
}

/// The node's cache of the four control registers it reads:
/// `MSR_PKG_POWER_LIMIT`, `MSR_RAPL_POWER_UNIT`, `IA32_PERF_CTL` and
/// `IA32_CLOCK_MODULATION`, as last read at the backend's
/// [`control_epoch`](MsrDevice::control_epoch). They are read again only
/// when the epoch moves (or when the backend cannot tell, `None`), and
/// the limit and units are decoded again only when their raw bits change.
///
/// [`Node::step`] and each pass of [`Node::step_until`]'s loop refresh
/// the cache once, first: nothing in a step changes a register before the
/// step's closing `advance_to`, so the RAPL tick, `macro_step` and
/// `step_quantum` all read it as refreshed.
#[derive(Debug, Clone, Copy)]
struct RaplRegs {
    epoch: Option<u64>,
    limit_raw: u64,
    units_raw: u64,
    limit: PowerLimit,
    units: RaplUnits,
    /// The `IA32_PERF_CTL` frequency request, MHz.
    perf_request: Option<u32>,
    /// The `IA32_CLOCK_MODULATION` duty request.
    duty_request: DutyCycle,
    /// The configured RAPL window encoded in `units`, found by the first
    /// cap write after the units last changed.
    window_field: Option<u64>,
}

impl RaplRegs {
    fn read(msr: &MsrDevice) -> Self {
        let units_raw = msr.hw_read(MSR_RAPL_POWER_UNIT);
        let limit_raw = msr.hw_read(MSR_PKG_POWER_LIMIT);
        let units = RaplUnits::decode(units_raw);
        Self {
            epoch: msr.control_epoch(),
            limit_raw,
            units_raw,
            limit: PowerLimit::decode(limit_raw, units),
            units,
            perf_request: decode_perf_ctl(msr.hw_read(IA32_PERF_CTL)),
            duty_request: DutyCycle::decode_msr(msr.hw_read(IA32_CLOCK_MODULATION)),
            window_field: None,
        }
    }

    /// Brings the cache up to date with the registers, reading them only
    /// if the epoch moved and decoding the limit and units only if their
    /// raw bits changed.
    fn refresh(&mut self, msr: &MsrDevice) {
        let epoch = msr.control_epoch();
        if epoch.is_some() && epoch == self.epoch {
            return;
        }
        self.epoch = epoch;
        let units_raw = msr.hw_read(MSR_RAPL_POWER_UNIT);
        let limit_raw = msr.hw_read(MSR_PKG_POWER_LIMIT);
        let units_changed = units_raw != self.units_raw;
        if units_changed {
            self.units_raw = units_raw;
            self.units = RaplUnits::decode(units_raw);
            self.window_field = None;
        }
        if units_changed || limit_raw != self.limit_raw {
            self.limit_raw = limit_raw;
            self.limit = PowerLimit::decode(limit_raw, self.units);
        }
        self.perf_request = decode_perf_ctl(msr.hw_read(IA32_PERF_CTL));
        self.duty_request = DutyCycle::decode_msr(msr.hw_read(IA32_CLOCK_MODULATION));
    }
}

impl Node {
    /// Build a node from a validated configuration.
    pub fn new(cfg: NodeConfig) -> Self {
        let tables = Arc::new(NodeTables::new(&cfg));
        Self::with_tables(cfg, tables)
    }

    /// Build a node from a validated configuration on `tables`, which
    /// must be `NodeTables::new(&cfg)`: nodes of one configuration can
    /// share one copy of the tables, which never change.
    ///
    /// # Panics
    /// Panics on an invalid `cfg`; in debug builds, also when `tables`
    /// differ from `cfg`'s in any bit.
    pub fn with_tables(cfg: NodeConfig, tables: Arc<NodeTables>) -> Self {
        cfg.validate();
        debug_assert!(
            tables.same_bits(&NodeTables::new(&cfg)),
            "node tables were built from another configuration"
        );
        // Arc clone: the plan itself is shared, not deep-copied.
        let msr = MsrDevice::builder()
            .backend(cfg.backend)
            .maybe_faults(cfg.faults.clone())
            .build()
            .unwrap_or_else(|e| panic!("cannot initialise MSR backend {:?}: {e}", cfg.backend));
        Self::with_msr(cfg, msr, tables)
    }

    /// A node on an already-built MSR device and `cfg`'s tables, for a
    /// validated `cfg`; `cfg.backend` and `cfg.faults` are not consulted.
    pub(crate) fn with_msr(cfg: NodeConfig, msr: MsrDevice, tables: Arc<NodeTables>) -> Self {
        let actuation = Actuation::flat_out(&cfg);
        let cores = vec![CoreWork::Idle; cfg.cores];
        let thermal = cfg.thermal.clone().map(ThermalState::new);
        let retain = cfg.rapl_window.max(crate::time::SEC);
        Self {
            energy: EnergyMeter::new(retain * 2),
            next_rapl: cfg.rapl_period,
            scratch: vec![CoreScratch::default(); cfg.cores],
            runs_fresh: false,
            followers_stale: false,
            pressure: 0.0,
            regs: RaplRegs::read(&msr),
            work: WorkCounts::default(),
            cfg,
            now: 0,
            msr,
            rapl: RaplController::new(),
            actuation,
            cores,
            counters: Counters::default(),
            telemetry: QuantumTelemetry::default(),
            acc_busy_weight: 0.0,
            acc_powered: 0.0,
            acc_bytes: 0.0,
            acc_quanta: 0,
            thermal,
            tables,
            outcome: StepOutcome::default(),
        }
    }

    /// The node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// The node's lookup tables, shared with every node built on them.
    pub fn tables(&self) -> &Arc<NodeTables> {
        &self.tables
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to the MSR device (for monitoring software).
    pub fn msr(&self) -> &MsrDevice {
        &self.msr
    }

    /// Mutable access to the MSR device (for control software, like
    /// `libmsr` writes from the NRM).
    pub fn msr_mut(&mut self) -> &mut MsrDevice {
        &mut self.msr
    }

    /// Cumulative hardware counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// How often each stage of stepping has run (see [`WorkCounts`]).
    pub fn work_counts(&self) -> WorkCounts {
        WorkCounts {
            fit_probes: self.rapl.fit_probes(),
            msr_calls: self.msr.calls(),
            ..self.work
        }
    }

    /// Telemetry for the most recent quantum.
    pub fn telemetry(&self) -> QuantumTelemetry {
        self.telemetry
    }

    /// Total package energy consumed, joules.
    pub fn total_energy(&self) -> f64 {
        self.energy.total_joules()
    }

    /// Rolling-average package power over `window`, W.
    pub fn average_power(&self, window: Nanos) -> f64 {
        self.energy.average_power(window)
    }

    /// The actuator settings currently in force.
    pub fn actuation(&self) -> Actuation {
        self.actuation
    }

    /// Junction temperature in °C, when the thermal model is enabled.
    pub fn temperature_c(&self) -> Option<f64> {
        self.thermal.as_ref().map(|t| t.temperature_c())
    }

    /// Whether the PROCHOT thermal throttle is currently asserted.
    pub fn thermal_throttling(&self) -> bool {
        self.thermal
            .as_ref()
            .map(|t| t.throttling())
            .unwrap_or(false)
    }

    /// Convenience: program (or clear) the package power cap through the
    /// MSR interface, exactly as `libmsr` would. Like any user-space MSR
    /// access this can fail (e.g. under injected faults); control software
    /// is expected to handle the error rather than assume the cap latched.
    pub fn set_package_cap(&mut self, watts: Option<f64>) -> Result<(), MsrError> {
        self.regs.refresh(&self.msr);
        let units = self.regs.units;
        let window = self.cfg.rapl_window;
        let window_field = *self
            .regs
            .window_field
            .get_or_insert_with(|| PowerLimit::window_field(window, units));
        let raw = PowerLimit::encode_with_window(watts, window_field, units);
        self.msr.write(MSR_PKG_POWER_LIMIT, raw)
    }

    /// The currently programmed package cap, if any.
    pub fn package_cap(&self) -> Option<f64> {
        PowerLimit::decode(self.msr.hw_read(MSR_PKG_POWER_LIMIT), self.msr.units()).watts
    }

    /// Assign work to a core. This splits the run of identical cores
    /// holding it, so any lagging followers are caught up first.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn assign(&mut self, core: usize, work: CoreWork) {
        if let CoreWork::Sleep { until } = work {
            assert!(until >= self.now, "sleep target in the past");
        }
        self.sync_followers();
        self.cores[core] = work;
        self.runs_fresh = false;
    }

    /// Assign the same work to every core. Equivalent to [`Node::assign`]
    /// on each core in turn, but it stores only the first core and records
    /// all the cores as one run; the rest follow it lazily.
    pub fn assign_all(&mut self, work: CoreWork) {
        if let CoreWork::Sleep { until } = work {
            assert!(until >= self.now, "sleep target in the past");
        }
        let n = self.cores.len();
        self.cores[0] = work;
        self.scratch[0].run = n;
        // What `find_runs` would sum: one weight per core, in core order.
        let weight = pressure_weight(&work);
        self.pressure = (0..n).fold(0.0, |p, _| p + weight);
        self.runs_fresh = true;
        self.followers_stale = n > 1;
    }

    /// What a core is currently doing.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn work(&self, core: usize) -> &CoreWork {
        if !self.followers_stale {
            return &self.cores[core];
        }
        let mut head = 0;
        while head + self.scratch[head].run <= core {
            head += self.scratch[head].run;
        }
        &self.cores[head]
    }

    /// True when the core has no assigned work.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn is_available(&self, core: usize) -> bool {
        matches!(self.work(core), CoreWork::Idle)
    }

    /// True when no core has assigned work.
    pub fn all_idle(&self) -> bool {
        self.heads().all(|work| matches!(work, CoreWork::Idle))
    }

    /// The work of every core whose entry is current: each run's head
    /// while followers lag, else every core.
    fn heads(&self) -> impl Iterator<Item = &CoreWork> {
        let mut i = 0;
        std::iter::from_fn(move || {
            let work = self.cores.get(i)?;
            i += if self.followers_stale {
                self.scratch[i].run
            } else {
                1
            };
            Some(work)
        })
    }

    /// Advance the simulation by exactly one quantum. Returns which cores
    /// finished packets or woke from sleep; the returned reference points at
    /// the node's reusable outcome buffer (clone it to keep it across
    /// steps).
    pub fn step(&mut self) -> &StepOutcome {
        self.regs.refresh(&self.msr);
        // RAPL control decision on period boundaries (before executing).
        if self.now >= self.next_rapl {
            self.rapl_tick();
            self.next_rapl += self.cfg.rapl_period;
        }
        self.outcome.clear();
        self.step_quantum();
        &self.outcome
    }

    /// Advance the simulation until `deadline`, or until any core completes
    /// a packet or wakes from sleep, whichever comes first. Time always
    /// lands on a quantum boundary (the first one at or past `deadline`
    /// when no event cuts the run short), exactly as a [`Node::step`] loop
    /// would.
    ///
    /// Stretches with no upcoming event are covered by a closed-form
    /// macro-step instead of quantum-by-quantum iteration; the result
    /// agrees with calling [`Node::step`] in a loop and stopping on the
    /// first non-empty outcome (see the module docs for how closely).
    ///
    /// The runs of adjacent bit-identical cores a macro-step evaluates
    /// once are kept across macro-steps and calls, which advance only each
    /// run's first core; [`Node::work`] and the other readers resolve a
    /// core through its run.
    pub fn step_until(&mut self, deadline: Nanos) -> &StepOutcome {
        self.outcome.clear();
        while self.now < deadline && self.outcome.is_empty() {
            self.regs.refresh(&self.msr);
            if self.now >= self.next_rapl {
                self.rapl_tick();
                self.next_rapl += self.cfg.rapl_period;
            }
            let k = self.macro_quanta(deadline);
            if k >= 2 {
                self.macro_step(k);
            } else {
                self.step_quantum();
            }
        }
        &self.outcome
    }

    /// Absolute sim-time of the node's next *scheduled* event at or before
    /// `deadline`: the next RAPL period boundary, the next fault window
    /// edge (opening, closing, or deferred cap latch), or a sleeping
    /// core's wake — whichever comes first. Compute completions are
    /// deliberately excluded: they depend on the power cap in force and
    /// are discovered by stepping, not predicted here. Schedulers use
    /// this to decide whether a node needs waking before their horizon;
    /// a node with no event before `deadline` can be left parked without
    /// changing what any [`Node::step_until`] call will observe.
    pub fn next_event_hint(&self, deadline: Nanos) -> Nanos {
        let mut t = deadline.min(self.next_rapl);
        if let Some(b) = self.msr.next_event_hint(self.now) {
            t = t.min(b);
        }
        for work in self.heads() {
            if let CoreWork::Sleep { until } = work {
                t = t.min(*until);
            }
        }
        t.max(self.now)
    }

    /// Number of whole quanta until the next *event horizon*: the earliest
    /// of the caller's deadline, the next RAPL period boundary, a fault
    /// window opening/closing or deferred cap latching, a sleeping core's
    /// wake time, and (with a one-quantum safety margin) a computing core's
    /// predicted completion. A macro-step of this many quanta crosses no
    /// horizon except possibly on its final quantum boundary — the same
    /// quantum on which the exact path observes the event.
    ///
    /// Finds the runs of bit-identical cores unless the runs from an
    /// earlier call still hold (see `runs_fresh`), and records each
    /// computing run's `t_comp`/`t_mem` in the scratch at the run's first
    /// core. Those values are only valid for a [`Node::macro_step`] that
    /// runs straight after this call on unchanged state, which is how
    /// [`Node::step_until`] uses the pair.
    fn macro_quanta(&mut self, deadline: Nanos) -> u64 {
        let dt = self.cfg.quantum;
        let dt_s = secs(dt);
        let now = self.now;
        // Quanta from `now` to the first quantum boundary at or past `b`.
        let quanta_to = |b: Nanos| b.saturating_sub(now).div_ceil(dt);

        let mut k = quanta_to(deadline).min(quanta_to(self.next_rapl));
        if let Some(b) = self.msr.next_event_hint(now) {
            k = k.min(quanta_to(b));
        }
        if k < 2 {
            return k;
        }

        // Frequency the quanta will run at (PROCHOT pin included; a throttle
        // *flip* mid-step is handled by truncation inside macro_step).
        let mut effective = self.actuation;
        if let Some(t) = &self.thermal {
            if t.throttling() {
                effective.pstate = self.cfg.ladder.min_pstate();
            }
        }
        let f_eff_hz = self.tables.mhz(effective.pstate) * 1e6 * effective.duty.fraction();

        if !self.runs_fresh {
            self.sync_followers();
            self.pressure = find_runs(&self.cores, &mut self.scratch);
            self.runs_fresh = true;
            self.work.run_searches += 1;
        }
        let pipe = self.tables.service_pipe(effective.uncore, self.pressure);
        let bytes_per_miss = self.cfg.uncore.bytes_per_miss;

        // Each run's horizon, evaluated once at its first core.
        let mut i = 0;
        while i < self.cores.len() {
            let eval = &mut self.scratch[i];
            match self.cores[i] {
                CoreWork::Idle | CoreWork::Spin => {}
                CoreWork::Sleep { until } => {
                    // Land the macro end exactly on the wake quantum.
                    k = k.min(quanta_to(until));
                }
                CoreWork::Compute(ps) => {
                    let t_comp = if f_eff_hz > 0.0 {
                        ps.cycles_left / f_eff_hz
                    } else {
                        f64::INFINITY
                    };
                    let t_mem = ps.misses_left * bytes_per_miss / (pipe * ps.mlp);
                    eval.t_comp = t_comp;
                    eval.t_mem = t_mem;
                    let t_total = t_comp + t_mem;
                    // Stop one quantum short of the predicted completion so
                    // the completion decision itself is always taken by the
                    // exact single-quantum path (immune to closed-form
                    // rounding). The `as u64` cast saturates for infinite
                    // t_total (no completion horizon) and maps NaN to 0
                    // (forces the exact path).
                    k = k.min(((t_total / dt_s) as u64).saturating_sub(1));
                }
            }
            if k < 2 {
                return k;
            }
            i += eval.run;
        }
        k
    }

    /// Apply `k` quanta in closed form. Caller guarantees (via
    /// [`Node::macro_quanta`], called immediately before on the same state)
    /// that no RAPL boundary, fault boundary, wake or completion lies
    /// strictly inside the covered span — wakes may land exactly on its
    /// final quantum — and that the runs, and every computing run's times,
    /// are recorded in the scratch. A thermal-throttle flip truncates the
    /// step at the quantum after the flip, exactly where the exact path
    /// would first run at the new frequency.
    fn macro_step(&mut self, k: u64) {
        let dt = self.cfg.quantum;
        let start = self.now;
        self.work.macro_steps += 1;

        let (rates, effective, throttled0) = self.quantum_rates();
        let QuantumRates { dt_s, leak0, .. } = rates;
        let f_mhz = self.tables.mhz(effective.pstate);
        let duty_frac = effective.duty.fraction();
        let uncore_level = effective.uncore;

        // Pass 1: per-quantum sums, each run's increments added once for
        // all of its cores.
        let sums = self.quantum_sums(k, &rates, add_run);
        // core_dyn_w and core_static_w (sans leak factor) feed the thermal path.
        let [bytes_q, inst_q, cycles_q, misses_q, core_dyn_w, core_static_w, rest @ ..] = sums;
        let [core_w0, busy_weight, powered, aperf_q, mperf_q] = rest;

        let achieved_bw = bytes_q / dt_s;
        let uncore_w = self.tables.uncore_power(uncore_level, achieved_bw);

        // Pass 2: energy and thermal. Without a thermal model package power
        // is constant over the whole span (one meter sample, one tick
        // batch); with one, leakage drifts with temperature every quantum
        // and a PROCHOT flip truncates the step.
        let energy_unit = self.regs.units.energy_j;
        let executed;
        let mut energy_ticks: u64;
        let core_w_last;
        if let Some(t) = &mut self.thermal {
            energy_ticks = 0;
            let mut core_w_i = core_dyn_w + core_static_w * leak0;
            let mut done = 0;
            for i in 0..k {
                core_w_i = core_dyn_w + core_static_w * t.leak_factor();
                let pkg_w = core_w_i + uncore_w;
                let e = pkg_w * dt_s;
                self.energy.record(start + (i + 1) * dt, e);
                energy_ticks += round_u64(e / energy_unit);
                t.step(pkg_w, dt_s);
                done = i + 1;
                if t.throttling() != throttled0 {
                    break;
                }
            }
            executed = done;
            core_w_last = core_w_i;
        } else {
            executed = k;
            core_w_last = core_w0;
            let e_q = (core_w0 + uncore_w) * dt_s;
            self.energy.record(start + k * dt, e_q * k as f64);
            energy_ticks = round_u64(e_q / energy_unit) * k;
        }

        // Pass 3: apply the k-quantum closed form with the span actually
        // executed. Over j quanta the remaining-work factor telescopes to
        // (t_total - j·dt) / t_total, i.e. state shrinks by rho·j.
        let kf = executed as f64;
        let end = start + executed * dt;
        self.advance_runs(kf, end);
        self.counters.instructions += inst_q * kf;
        self.counters.cycles += cycles_q * kf;
        self.counters.l3_misses += misses_q * kf;

        self.now = end;
        // Counters first: the backend's clock advance reads the energy
        // counter (a stuck-counter fault freezes it) and never touches
        // APERF or MPERF.
        self.msr.hw_count(
            energy_ticks,
            round_u64(aperf_q) * executed,
            round_u64(mperf_q) * executed,
        );
        self.msr.advance_to(end);

        self.telemetry = QuantumTelemetry {
            package_w: core_w_last + uncore_w,
            core_w: core_w_last,
            uncore_w,
            effective_mhz: f_mhz * duty_frac,
            achieved_bw,
        };

        self.acc_busy_weight += busy_weight * kf;
        self.acc_powered += powered * kf;
        self.acc_bytes += bytes_q * kf;
        self.acc_quanta += executed;
    }

    /// The rates every quantum of a macro-step starting now runs at, the
    /// actuation in force (a PROCHOT pin applied) and whether the node
    /// was throttled.
    fn quantum_rates(&self) -> (QuantumRates, Actuation, bool) {
        let mut effective = self.actuation;
        let throttled = self
            .thermal
            .as_ref()
            .map(|t| t.throttling())
            .unwrap_or(false);
        if throttled {
            effective.pstate = self.cfg.ladder.min_pstate();
        }
        let duty_frac = effective.duty.fraction();
        let rates = QuantumRates {
            dt_s: secs(self.cfg.quantum),
            f_eff_hz: self.tables.mhz(effective.pstate) * 1e6 * duty_frac,
            fmax_hz: self.cfg.fmax_mhz() as f64 * 1e6,
            dyn_w: self.tables.dynamic_full(effective.pstate) * duty_frac,
            static_w: self.tables.static_power(effective.pstate),
            leak0: self
                .thermal
                .as_ref()
                .map(|t| t.leak_factor())
                .unwrap_or(1.0),
            sleep_powered: self.sleep_powered(),
        };
        (rates, effective, throttled)
    }

    /// Pass 1 of [`Node::macro_step`]: the per-quantum sums over all cores
    /// of bytes, instructions, cycles, misses, dynamic W, static W, core W
    /// at `leak0`, busy fraction, powered cores, APERF and
    /// MPERF. While no horizon is crossed every quantum of the macro step
    /// contributes identical increments: packet state decays
    /// multiplicatively, so remaining-work ratios (and hence utilisations,
    /// power and counter deltas) are invariant. Each run's increments are
    /// computed once, at its first core, and `add` folds them into the sums
    /// for all of the run's cores ([`add_run`] in production; the tests
    /// race it against adding them once per core). A sum a core kind
    /// leaves alone gets `+0.0`, exact because no sum starting at `+0.0`
    /// can become `-0.0`. Records each computing run's `rho` for pass 3.
    fn quantum_sums(
        &mut self,
        k: u64,
        r: &QuantumRates,
        add: impl Fn(&mut [f64; 11], &[f64; 11], usize),
    ) -> [f64; 11] {
        let dt_s = r.dt_s;
        let mut sums = [0.0f64; 11];
        let mut i = 0;
        while i < self.cores.len() {
            let eval = &mut self.scratch[i];
            let (activity, static_scale, busy_frac, powered, bytes, inst, cycles, misses) =
                match self.cores[i] {
                    CoreWork::Idle => (0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                    CoreWork::Sleep { .. } => (
                        0.0,
                        self.cfg.cstate_static_frac,
                        0.0,
                        r.sleep_powered,
                        0.0,
                        self.cfg.sleep_inst_per_sec * dt_s,
                        0.0,
                        0.0,
                    ),
                    CoreWork::Spin => {
                        let cyc = r.f_eff_hz * dt_s;
                        (1.0, 1.0, 1.0, 1.0, 0.0, self.cfg.spin_ipc * cyc, cyc, 0.0)
                    }
                    CoreWork::Compute(ps) => {
                        let CoreScratch { t_comp, t_mem, .. } = *eval;
                        let t_total = t_comp + t_mem;
                        debug_assert!(
                            t_total > dt_s * k as f64,
                            "macro step may not contain a completion"
                        );
                        let rho = dt_s / t_total;
                        eval.rho = rho;
                        let u_comp = t_comp / t_total;
                        let u_mem = t_mem / t_total;
                        let misses_serviced = ps.misses_left * rho;
                        let busy = (u_comp + u_mem).min(1.0);
                        let activity = u_comp + u_mem * self.cfg.stall_dyn_frac;
                        (
                            activity.min(1.0),
                            1.0,
                            busy,
                            1.0,
                            misses_serviced * self.cfg.uncore.bytes_per_miss,
                            ps.inst_left * rho,
                            r.f_eff_hz * busy * dt_s,
                            misses_serviced,
                        )
                    }
                };
            let dyn_w = r.dyn_w * activity;
            let inc = [
                bytes,
                inst,
                cycles,
                misses,
                dyn_w,
                r.static_w * static_scale,
                dyn_w + r.static_w * (static_scale * r.leak0),
                busy_frac,
                powered,
                r.f_eff_hz * busy_frac * dt_s,
                r.fmax_hz * busy_frac * dt_s,
            ];
            add(&mut sums, &inc, eval.run);
            i += eval.run;
            self.work.run_evals += 1;
        }
        sums
    }

    /// The closed form's state update over `kf` quanta. Each computing
    /// run's packet is shrunk once, at its first core only, and each
    /// sleeping run due by `end` wakes together, in core order, its first
    /// core set idle; the followers lag until [`Node::sync_followers`].
    ///
    /// The runs stay valid for the next macro-step unless a sleeping run
    /// woke or a computing run's packet ran out of misses (which changes
    /// its pressure weight). Runs that are no longer maximal are harmless:
    /// the sums then add a run's cores in parts, which can move them by an
    /// ulp, and the same inputs always give the same parts.
    fn advance_runs(&mut self, kf: f64, end: Nanos) {
        let Self {
            cores,
            scratch,
            outcome,
            ..
        } = self;
        let mut i = 0;
        while i < cores.len() {
            let CoreScratch { run, rho, .. } = scratch[i];
            match &mut cores[i] {
                CoreWork::Idle | CoreWork::Spin => {}
                CoreWork::Sleep { until } => {
                    if *until <= end {
                        outcome.woke.extend(i..i + run);
                        cores[i] = CoreWork::Idle;
                        self.runs_fresh = false;
                        self.followers_stale |= run > 1;
                    }
                }
                CoreWork::Compute(ps) => {
                    let had_misses = ps.misses_left > 0.0;
                    let frac_k = rho * kf;
                    ps.cycles_left -= ps.cycles_left * frac_k;
                    ps.misses_left -= ps.misses_left * frac_k;
                    ps.inst_left -= ps.inst_left * frac_k;
                    if (ps.misses_left > 0.0) != had_misses {
                        self.runs_fresh = false;
                    }
                    self.followers_stale |= run > 1;
                }
            }
            i += run;
        }
    }

    /// Copies each run's first core over the rest of the run, catching up
    /// the followers that [`Node::advance_runs`], [`Node::step_quantum`]
    /// and [`Node::assign_all`] left behind.
    fn sync_followers(&mut self) {
        if !self.followers_stale {
            return;
        }
        self.followers_stale = false;
        let mut i = 0;
        while i < self.cores.len() {
            let run = self.scratch[i].run;
            let head = self.cores[i];
            self.cores[i + 1..i + run].fill(head);
            i += run;
        }
    }

    /// Execute exactly one quantum, appending to `self.outcome`. This is
    /// the reference path: [`Node::step`] runs nothing else.
    ///
    /// Each run of bit-identical cores is evaluated once, at its first
    /// core, which is the only one it writes; every sum still gets the
    /// run's terms once per core, in core order, so the result is bit for
    /// bit that of walking every core. The runs stay valid for the next
    /// step unless a core completed or woke or a packet ran out of misses.
    fn step_quantum(&mut self) {
        if !self.runs_fresh {
            self.sync_followers();
            self.pressure = find_runs(&self.cores, &mut self.scratch);
            self.runs_fresh = true;
            self.work.run_searches += 1;
        }
        self.work.quanta += 1;
        let dt = self.cfg.quantum;
        let dt_s = secs(dt);
        let end = self.now + dt;

        // PROCHOT: an asserted thermal throttle overrides everything and
        // pins the lowest P-state until the hysteresis band clears.
        let mut effective = self.actuation;
        if let Some(t) = &self.thermal {
            if t.throttling() {
                effective.pstate = self.cfg.ladder.min_pstate();
            }
        }
        let leak_factor = self
            .thermal
            .as_ref()
            .map(|t| t.leak_factor())
            .unwrap_or(1.0);

        let duty = effective.duty;
        let duty_frac = duty.fraction();
        let f_mhz = self.tables.mhz(effective.pstate);
        let f_eff_hz = f_mhz * 1e6 * duty_frac;
        let fmax_hz = self.cfg.fmax_mhz() as f64 * 1e6;
        let uncore_level = effective.uncore;
        let dyn_full_w = self.tables.dynamic_full(effective.pstate);
        let static_at_f = self.tables.static_power(effective.pstate);

        let pipe = self.tables.service_pipe(uncore_level, self.pressure);

        let sleep_powered = self.sleep_powered();
        let mut core_w = 0.0;
        let mut bytes_moved = 0.0;
        let mut busy_weight = 0.0;
        let mut powered = 0.0;
        let mut aperf = 0.0;
        let mut mperf = 0.0;

        let mut i = 0;
        while i < self.cores.len() {
            let run = self.scratch[i].run;
            // One core's terms: activity, static scale, busy fraction,
            // powered cores, then instructions, cycles, misses and bytes.
            // A term a core kind leaves alone is `+0.0`, exact in a sum
            // that starts at `+0.0`.
            let work = &mut self.cores[i];
            let (activity, static_scale, busy_frac, powered_core, inst, cycles, misses, bytes) =
                match work {
                    CoreWork::Idle => (0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                    CoreWork::Sleep { until } => {
                        if *until <= end {
                            self.outcome.woke.extend(i..i + run);
                            *work = CoreWork::Idle;
                            self.runs_fresh = false;
                            self.followers_stale |= run > 1;
                        }
                        let inst = self.cfg.sleep_inst_per_sec * dt_s;
                        let scale = self.cfg.cstate_static_frac;
                        (0.0, scale, 0.0, sleep_powered, inst, 0.0, 0.0, 0.0)
                    }
                    CoreWork::Spin => {
                        let cyc = f_eff_hz * dt_s;
                        (1.0, 1.0, 1.0, 1.0, self.cfg.spin_ipc * cyc, cyc, 0.0, 0.0)
                    }
                    CoreWork::Compute(ps) => {
                        let t_comp = if f_eff_hz > 0.0 {
                            ps.cycles_left / f_eff_hz
                        } else {
                            f64::INFINITY
                        };
                        let t_mem =
                            ps.misses_left * self.cfg.uncore.bytes_per_miss / (pipe * ps.mlp);
                        let t_total = t_comp + t_mem;

                        let (frac_of_packet, u_comp, u_mem) = if t_total <= dt_s {
                            // Packet completes within the quantum.
                            (1.0, t_comp / dt_s, t_mem / dt_s)
                        } else {
                            let rho = dt_s / t_total;
                            (rho, t_comp / t_total, t_mem / t_total)
                        };

                        let misses_serviced = ps.misses_left * frac_of_packet;
                        let inst = ps.inst_left * frac_of_packet;
                        let busy = (u_comp + u_mem).min(1.0);
                        let activity = u_comp + u_mem * self.cfg.stall_dyn_frac;

                        if t_total <= dt_s {
                            self.outcome.completed.extend(i..i + run);
                            *work = CoreWork::Idle;
                            self.runs_fresh = false;
                        } else {
                            let had_misses = ps.misses_left > 0.0;
                            ps.cycles_left -= ps.cycles_left * frac_of_packet;
                            ps.misses_left -= misses_serviced;
                            ps.inst_left -= ps.inst_left * frac_of_packet;
                            if (ps.misses_left > 0.0) != had_misses {
                                self.runs_fresh = false;
                            }
                        }
                        self.followers_stale |= run > 1;

                        (
                            activity.min(1.0),
                            1.0,
                            busy,
                            1.0,
                            inst,
                            f_eff_hz * busy * dt_s,
                            misses_serviced,
                            misses_serviced * self.cfg.uncore.bytes_per_miss,
                        )
                    }
                };

            let core_w_inc =
                dyn_full_w * duty_frac * activity + static_at_f * (static_scale * leak_factor);
            let aperf_inc = f_eff_hz * busy_frac * dt_s;
            let mperf_inc = fmax_hz * busy_frac * dt_s;
            for _ in 0..run {
                self.counters.instructions += inst;
                self.counters.cycles += cycles;
                self.counters.l3_misses += misses;
                bytes_moved += bytes;
                core_w += core_w_inc;
                busy_weight += busy_frac;
                powered += powered_core;
                aperf += aperf_inc;
                mperf += mperf_inc;
            }
            i += run;
        }

        let achieved_bw = bytes_moved / dt_s;
        let uncore_w = self.tables.uncore_power(uncore_level, achieved_bw);
        let pkg_w = core_w + uncore_w;

        if let Some(t) = &mut self.thermal {
            t.step(pkg_w, dt_s);
        }

        self.now = end;
        self.energy.record(self.now, pkg_w * dt_s);
        let energy_ticks = round_u64(pkg_w * dt_s / self.regs.units.energy_j);
        self.msr
            .hw_count(energy_ticks, round_u64(aperf), round_u64(mperf));
        self.msr.advance_to(end);

        self.telemetry = QuantumTelemetry {
            package_w: pkg_w,
            core_w,
            uncore_w,
            effective_mhz: f_mhz * duty_frac,
            achieved_bw,
        };

        self.acc_busy_weight += busy_weight;
        self.acc_powered += powered;
        self.acc_bytes += bytes_moved;
        self.acc_quanta += 1;
    }

    /// How many powered cores a sleeping core counts as: one whole core
    /// whenever its C-state keeps any static power (`cstate_static_frac >
    /// 0`), none otherwise; never a fraction. Running and idle cores count
    /// as one.
    fn sleep_powered(&self) -> f64 {
        // `validate` pins the fraction to [0, 1], where this equals `ceil`
        // (a software call on the baseline target), ±0 included.
        let frac = self.cfg.cstate_static_frac.min(1.0);
        if frac > 0.0 {
            1.0
        } else {
            frac
        }
    }

    /// One RAPL control decision based on activity accumulated since the
    /// last one, combined with any user DVFS/DDCM requests from the MSRs
    /// (read from `self.regs`, refreshed by the caller).
    fn rapl_tick(&mut self) {
        let limit = self.regs.limit;
        self.work.rapl_ticks += 1;
        let mut act = if limit.watts.is_some() {
            self.work.capped_ticks += 1;
            let quanta = self.acc_quanta.max(1) as f64;
            let period_s = secs(self.cfg.quantum) * quanta;
            let snapshot = ActivitySnapshot {
                busy_weight: self.acc_busy_weight / quanta,
                powered_cores: (self.acc_powered / quanta).max(1.0),
                achieved_bw: self.acc_bytes / period_s,
            };
            let window = limit.window.max(self.cfg.rapl_period);
            let avg = self
                .energy
                .average_power(window.min(self.cfg.rapl_window * 4));
            self.rapl
                .control(&self.cfg, limit, &self.tables, &snapshot, avg)
        } else {
            // Uncapped, the decision reads neither activity nor power.
            self.rapl.uncapped(&self.cfg)
        };
        self.acc_busy_weight = 0.0;
        self.acc_powered = 0.0;
        self.acc_bytes = 0.0;
        self.acc_quanta = 0;

        // Honour user P-state / duty requests: hardware takes the minimum of
        // the OS request and RAPL's constraint, like real `IA32_PERF_CTL`
        // under an active power limit.
        if let Some(req_mhz) = self.regs.perf_request {
            let req_p = self.cfg.ladder.pstate_at_or_below(req_mhz);
            act.pstate = act.pstate.min(req_p);
        }
        act.duty = act.duty.min(self.regs.duty_request);

        self.actuation = act;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use std::sync::Arc;

    use super::*;
    use crate::bandwidth::UncoreLevel;
    use crate::difftests::{random_work, Mix};
    use crate::faults::{FaultPlan, FaultWindow};
    use crate::freq::PState;
    use crate::msr::{encode_perf_ctl, IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS};
    use crate::thermal::ThermalConfig;
    use crate::time::{MS, SEC, US};

    fn run_quanta(node: &mut Node, n: usize) -> Vec<StepOutcome> {
        (0..n).map(|_| node.step().clone()).collect()
    }

    fn compute_packet(ms_at_fmax: f64) -> WorkPacket {
        let cycles = 3.3e9 * ms_at_fmax / 1e3;
        WorkPacket {
            cycles,
            misses: 0.0,
            instructions: cycles * 2.0,
            mlp: 1.0,
            mem_weight: 1.0,
        }
    }

    #[test]
    fn nodes_on_shared_tables_match_a_node_with_its_own_bit_for_bit() {
        let cfg = crate::presets::leaky(15.0);
        let tables = Arc::new(NodeTables::new(&cfg));
        let mut own = Node::new(cfg.clone());
        let mut shared = [
            Node::with_tables(cfg.clone(), Arc::clone(&tables)),
            Node::with_tables(cfg, Arc::clone(&tables)),
        ];
        assert_eq!(Arc::strong_count(&tables), 3);
        for node in std::iter::once(&mut own).chain(&mut shared) {
            node.set_package_cap(Some(70.0)).unwrap();
            for c in 0..node.cores() {
                let s = 1.0 + 0.05 * c as f64;
                let packet = WorkPacket::new(3.3e10 * s, 4e7 * s, 5e10);
                node.assign(c, CoreWork::Compute(packet.into()));
            }
        }
        // The sharing nodes step in turn, so each one's steps interleave
        // with the other's reads of the same tables.
        for t in 1..=20 {
            for node in std::iter::once(&mut own).chain(&mut shared) {
                if t == 10 {
                    node.set_package_cap(Some(95.0)).unwrap();
                }
                node.step_until(t * 100 * MS);
            }
        }
        let telemetry_bits = |n: &Node| {
            let t = n.telemetry();
            [
                t.package_w,
                t.core_w,
                t.uncore_w,
                t.effective_mhz,
                t.achieved_bw,
            ]
            .map(f64::to_bits)
        };
        assert!(own.work_counts().capped_ticks > 0, "the run must be capped");
        for node in &shared {
            assert_eq!(node.work_counts(), own.work_counts());
            assert_eq!(node.total_energy().to_bits(), own.total_energy().to_bits());
            assert_eq!(telemetry_bits(node), telemetry_bits(&own));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another configuration")]
    fn tables_of_another_configuration_are_rejected() {
        let tables = Arc::new(NodeTables::new(&crate::presets::leaky(15.0)));
        Node::with_tables(crate::presets::reference(), tables);
    }

    #[test]
    fn packet_completes_in_expected_time_at_fmax() {
        let mut node = Node::new(NodeConfig::default());
        node.assign(0, CoreWork::Compute(compute_packet(10.0).into()));
        let mut done_at = None;
        for _ in 0..200 {
            let out = node.step();
            if out.completed.contains(&0) {
                done_at = Some(node.now());
                break;
            }
        }
        let t = done_at.expect("packet should complete") as f64 / MS as f64;
        assert!(
            (t - 10.0).abs() <= 0.2,
            "completed at {t} ms, wanted ~10 ms"
        );
    }

    #[test]
    fn sleep_wakes_on_time() {
        let mut node = Node::new(NodeConfig::default());
        let until = 5 * MS;
        node.assign(3, CoreWork::Sleep { until });
        let mut woke_at = None;
        for _ in 0..100 {
            let out = node.step();
            if out.woke.contains(&3) {
                woke_at = Some(node.now());
                break;
            }
        }
        let w = woke_at.expect("must wake");
        assert!(w >= until && w <= until + node.config().quantum);
    }

    #[test]
    fn uncapped_compute_power_in_calibration_band() {
        let mut node = Node::new(NodeConfig::default());
        for c in 0..24 {
            node.assign(c, CoreWork::Compute(compute_packet(5000.0).into()));
        }
        run_quanta(&mut node, 5000); // 0.5 s
        let p = node.average_power(100 * MS);
        assert!(
            (130.0..175.0).contains(&p),
            "uncapped compute-bound package power {p:.1} W outside band"
        );
        let t = node.telemetry();
        assert!(t.core_w > 5.0 * t.uncore_w, "core power should dominate");
    }

    #[test]
    fn rapl_cap_is_enforced_on_average() {
        let mut node = Node::new(NodeConfig::default());
        node.set_package_cap(Some(80.0)).unwrap();
        for c in 0..24 {
            node.assign(c, CoreWork::Compute(compute_packet(20_000.0).into()));
        }
        run_quanta(&mut node, 20_000); // 2 s
        let p = node.average_power(SEC);
        assert!(
            (p - 80.0).abs() / 80.0 < 0.10,
            "average power {p:.1} W should sit near the 80 W cap"
        );
    }

    #[test]
    fn stringent_cap_reduces_effective_frequency_below_fmin() {
        // DDCM region: effective frequency under a very low cap must fall
        // below the DVFS floor of 1200 MHz.
        let mut node = Node::new(NodeConfig::default());
        node.set_package_cap(Some(25.0)).unwrap();
        for c in 0..24 {
            node.assign(c, CoreWork::Compute(compute_packet(20_000.0).into()));
        }
        run_quanta(&mut node, 10_000);
        let t = node.telemetry();
        assert!(
            t.effective_mhz < 1200.0,
            "effective {:.0} MHz should be below fmin (duty cycling)",
            t.effective_mhz
        );
    }

    #[test]
    fn perf_ctl_request_limits_frequency_without_rapl() {
        let mut node = Node::new(NodeConfig::default());
        node.msr_mut()
            .write(IA32_PERF_CTL, encode_perf_ctl(1600))
            .unwrap();
        for c in 0..24 {
            node.assign(c, CoreWork::Compute(compute_packet(5000.0).into()));
        }
        run_quanta(&mut node, 100); // past the first RAPL tick
        let t = node.telemetry();
        assert!(
            (t.effective_mhz - 1600.0).abs() < 1.0,
            "requested 1600 MHz, effective {:.0}",
            t.effective_mhz
        );
    }

    #[test]
    fn memory_bound_work_is_insensitive_to_frequency() {
        // Two identical memory-heavy packets, one at fmax and one at fmin:
        // completion times should be close (beta small).
        let mem_packet = WorkPacket {
            cycles: 3.3e6, // 1 ms at fmax
            misses: 1.0e6, // dominates
            instructions: 1e7,
            mlp: 1.0,
            mem_weight: 1.0,
        };
        let complete_time = |mhz: Option<u32>| -> f64 {
            let mut node = Node::new(NodeConfig::default());
            if let Some(m) = mhz {
                node.msr_mut()
                    .write(IA32_PERF_CTL, encode_perf_ctl(m))
                    .unwrap();
                // Let the control tick latch the request.
                run_quanta(&mut node, 11);
            }
            node.assign(0, CoreWork::Compute(mem_packet.into()));
            let start = node.now();
            loop {
                let out = node.step();
                if out.completed.contains(&0) {
                    return (node.now() - start) as f64;
                }
            }
        };
        let t_fast = complete_time(None);
        let t_slow = complete_time(Some(1200));
        let ratio = t_slow / t_fast;
        assert!(
            ratio < 1.35,
            "memory-bound slowdown at fmin was {ratio:.2}x, expected < 1.35x"
        );
    }

    #[test]
    fn spin_inflates_instruction_counter() {
        let mut node = Node::new(NodeConfig::default());
        node.assign(0, CoreWork::Spin);
        run_quanta(&mut node, 10_000); // 1 s
        let inst = node.counters().instructions;
        // spin_ipc (2.1) * 3.3 GHz ~= 6.9e9 inst/s.
        assert!(
            (6.0e9..8.0e9).contains(&inst),
            "spin instructions {inst:.2e} off"
        );
    }

    #[test]
    fn thermal_model_heats_under_load_and_caps_cool_it() {
        let mk = |cap: Option<f64>| {
            let cfg = NodeConfig {
                thermal: Some(crate::thermal::ThermalConfig::default()),
                ..NodeConfig::default()
            };
            let mut node = Node::new(cfg);
            node.set_package_cap(cap).unwrap();
            for c in 0..24 {
                node.assign(c, CoreWork::Compute(compute_packet(60_000.0).into()));
            }
            run_quanta(&mut node, 150_000); // 15 s > tau
            node.temperature_c().expect("thermal enabled")
        };
        let hot = mk(None);
        let cool = mk(Some(80.0));
        assert!(hot > 75.0, "uncapped junction {hot:.1} C too cool");
        assert!(cool < hot - 10.0, "cap must create thermal headroom");
    }

    #[test]
    fn prochot_pins_the_lowest_pstate() {
        let cfg = NodeConfig {
            thermal: Some(crate::thermal::ThermalConfig {
                r_th_c_per_w: 0.45, // undersized heatsink: 150 W -> ~108 C
                ..crate::thermal::ThermalConfig::default()
            }),
            ..NodeConfig::default()
        };
        let mut node = Node::new(cfg);
        for c in 0..24 {
            node.assign(c, CoreWork::Compute(compute_packet(60_000.0).into()));
        }
        // PROCHOT oscillates (trip -> cool -> release -> reheat), so
        // observe the whole run rather than the final instant.
        let mut max_temp: f64 = 0.0;
        let mut throttled_quanta = 0u32;
        let mut min_mhz_while_hot = f64::INFINITY;
        for _ in 0..300_000 {
            node.step();
            max_temp = max_temp.max(node.temperature_c().unwrap());
            if node.thermal_throttling() {
                throttled_quanta += 1;
                min_mhz_while_hot = min_mhz_while_hot.min(node.telemetry().effective_mhz);
            }
        }
        assert!(
            max_temp > 95.0,
            "undersized sink must reach PROCHOT: {max_temp:.1} C"
        );
        assert!(throttled_quanta > 0, "throttle must assert at least once");
        assert!(
            (min_mhz_while_hot - 1200.0).abs() < 1.0,
            "PROCHOT pins fmin, saw {min_mhz_while_hot:.0} MHz"
        );
    }

    #[test]
    fn thermal_disabled_reports_no_temperature() {
        let node = Node::new(NodeConfig::default());
        assert_eq!(node.temperature_c(), None);
        assert!(!node.thermal_throttling());
    }

    #[test]
    fn aperf_mperf_ratio_tracks_effective_frequency() {
        let mut node = Node::new(NodeConfig::default());
        node.set_package_cap(Some(70.0)).unwrap();
        for c in 0..24 {
            node.assign(c, CoreWork::Compute(compute_packet(20_000.0).into()));
        }
        run_quanta(&mut node, 10_000);
        let ap = node.msr().read(IA32_APERF).unwrap() as f64;
        let mp = node.msr().read(IA32_MPERF).unwrap() as f64;
        let measured_mhz = ap / mp * 3300.0;
        assert!(
            measured_mhz < 3300.0 && measured_mhz > 500.0,
            "APERF/MPERF-derived frequency {measured_mhz:.0} MHz implausible"
        );
    }

    /// The summation [`add_run`] replaced, kept as its oracle: a run's
    /// increments added once per core, so every sum sees the per-core
    /// additions in core order.
    fn add_per_core(sums: &mut [f64; 11], inc: &[f64; 11], n: usize) {
        for _ in 0..n {
            for (sum, inc) in sums.iter_mut().zip(inc) {
                *sum += inc;
            }
        }
    }

    /// Work of any kind that stays in flight for tens of milliseconds at
    /// least, so a macro-step of several quanta covers every run.
    fn lasting_work(rng: &mut Mix, now: Nanos) -> CoreWork {
        match rng.next() % 4 {
            0 => CoreWork::Idle,
            1 => CoreWork::Spin,
            2 => CoreWork::Sleep {
                until: now + rng.range(2e7, 2e8) as Nanos,
            },
            _ => {
                let cycles = rng.range(1e8, 1e10);
                CoreWork::Compute(
                    WorkPacket {
                        cycles,
                        misses: cycles * rng.range(0.0, 2e-3),
                        instructions: cycles * rng.range(0.4, 2.4),
                        mlp: rng.range(0.15, 1.0),
                        mem_weight: rng.range(0.0, 1.0),
                    }
                    .into(),
                )
            }
        }
    }

    /// Every core's work, as the node's readers report it.
    fn works(node: &Node) -> Vec<CoreWork> {
        (0..node.cores()).map(|c| *node.work(c)).collect()
    }

    /// Requires `outcome` to name exactly the cores that went idle since
    /// `before`: completions from computing cores, wakes from sleeping
    /// ones, each list in core order.
    fn check_outcome(before: &[CoreWork], node: &Node, outcome: &StepOutcome) {
        let (mut completed, mut woke) = (Vec::new(), Vec::new());
        for (c, was) in before.iter().enumerate() {
            if *node.work(c) != CoreWork::Idle {
                continue;
            }
            match was {
                CoreWork::Compute(_) => completed.push(c),
                CoreWork::Sleep { .. } => woke.push(c),
                CoreWork::Idle | CoreWork::Spin => {}
            }
        }
        assert_eq!(
            outcome.completed,
            completed,
            "completions at t={}",
            node.now()
        );
        assert_eq!(outcome.woke, woke, "wakes at t={}", node.now());
    }

    /// Requires the twins to agree bit for bit on everything observable,
    /// and on every count of work done but the run searches
    /// [`Node::assign_all`] saves.
    fn check_twins(whole: &Node, each: &Node) {
        assert_eq!(whole.now(), each.now());
        let (a, b) = (whole.counters(), each.counters());
        for (x, y, what) in [
            (a.instructions, b.instructions, "instructions"),
            (a.cycles, b.cycles, "cycles"),
            (a.l3_misses, b.l3_misses, "l3_misses"),
            (whole.total_energy(), each.total_energy(), "energy"),
            (
                whole.temperature_c().unwrap_or(0.0),
                each.temperature_c().unwrap_or(0.0),
                "temperature",
            ),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} at t={}", whole.now());
        }
        assert_eq!(whole.telemetry(), each.telemetry());
        assert_eq!(whole.actuation(), each.actuation());
        for addr in [IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS] {
            assert_eq!(whole.msr().hw_read(addr), each.msr().hw_read(addr));
        }
        let counts = |n: &Node| WorkCounts {
            run_searches: 0,
            ..n.work_counts()
        };
        assert_eq!(counts(whole), counts(each));
        assert_eq!(works(whole), works(each), "work at t={}", whole.now());
        for c in 0..whole.cores() {
            assert_eq!(whole.is_available(c), each.is_available(c));
        }
        assert_eq!(whole.all_idle(), each.all_idle());
        assert_eq!(
            whole.all_idle(),
            (0..each.cores()).all(|c| each.is_available(c))
        );
        for ahead in [0, MS, 10 * MS] {
            let deadline = whole.now() + ahead;
            assert_eq!(
                whole.next_event_hint(deadline),
                each.next_event_hint(deadline)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// [`Node::assign_all`] against an [`Node::assign`] loop, on twin
        /// nodes driven through random interleavings of whole-node and
        /// per-core assigns of every work kind, exact steps, `step_until`
        /// segments and cap changes, with the thermal model and a fault
        /// plan on or off. The twins must agree bit for bit after every
        /// operation, and what the readers report, while followers lag,
        /// must agree with the outcomes.
        #[test]
        fn whole_node_assign_matches_per_core_assign(
            seed in any::<u64>(),
            cores in 1usize..=24,
            thermal in any::<bool>(),
            faulty in any::<bool>(),
        ) {
            let plan = FaultPlan::new(seed ^ 0x5eed)
                .stuck_energy(FaultWindow::new(4 * MS, 9 * MS))
                .energy_jump(1 << 20, FaultWindow::new(12 * MS, 14 * MS))
                .delayed_cap_latch(700 * US, FaultWindow::new(0, 30 * MS))
                .read_error(MSR_PKG_ENERGY_STATUS, 0.3, FaultWindow::new(6 * MS, 16 * MS))
                .write_error(MSR_PKG_POWER_LIMIT, 0.3, FaultWindow::new(0, 20 * MS));
            let cfg = NodeConfig {
                cores,
                thermal: thermal.then(ThermalConfig::default),
                faults: faulty.then(|| Arc::new(plan)),
                ..NodeConfig::default()
            };
            let mut whole = Node::new(cfg.clone());
            let mut each = Node::new(cfg);
            let mut rng = Mix(seed);
            for _ in 0..80 {
                let now = whole.now();
                let before = works(&each);
                match rng.next() % 8 {
                    0 | 1 => {
                        let w = random_work(&mut rng, now);
                        whole.assign_all(w);
                        for c in 0..cores {
                            each.assign(c, w);
                        }
                    }
                    2 => {
                        let c = rng.next() as usize % cores;
                        let w = random_work(&mut rng, now);
                        whole.assign(c, w);
                        each.assign(c, w);
                    }
                    3 => {
                        let caps = [None, Some(60.0), Some(90.0), Some(120.0)];
                        let cap = caps[rng.next() as usize % caps.len()];
                        let (a, b) = (whole.set_package_cap(cap), each.set_package_cap(cap));
                        prop_assert_eq!(a.is_ok(), b.is_ok());
                    }
                    4 => {
                        let a = whole.step().clone();
                        prop_assert_eq!(&a, each.step());
                        check_outcome(&before, &whole, &a);
                    }
                    _ => {
                        let deadline = now + rng.range(1e5, 6e6) as Nanos;
                        let a = whole.step_until(deadline).clone();
                        prop_assert_eq!(&a, each.step_until(deadline));
                        check_outcome(&before, &whole, &a);
                    }
                }
                check_twins(&whole, &each);
            }
        }

        /// Each of the eleven per-quantum sums a macro-step takes from
        /// [`add_run`] stays within 1e-12 relative of the per-core
        /// summation, over random layouts of runs of 1–24 cores of every
        /// kind, random actuations, C-state fractions and thermal models.
        #[test]
        fn run_sums_track_the_per_core_summation(
            seed in any::<u64>(),
            runs in proptest::collection::vec(1usize..=24, 1..8),
            thermal in any::<bool>(),
        ) {
            let mut rng = Mix(seed);
            let cfg = NodeConfig {
                cores: runs.iter().sum(),
                cstate_static_frac: rng.range(0.0, 1.0),
                thermal: thermal.then(ThermalConfig::default),
                ..NodeConfig::default()
            };
            let mut node = Node::new(cfg);
            let mut core = 0;
            for &n in &runs {
                let work = lasting_work(&mut rng, 0);
                for _ in 0..n {
                    node.assign(core, work);
                    core += 1;
                }
            }
            // One exact step takes the first RAPL decision; then any
            // actuation the controller might pick.
            node.step();
            node.actuation = Actuation {
                pstate: PState(rng.next() as usize % node.cfg.ladder.len()),
                duty: DutyCycle::new(1 + (rng.next() % 16) as u8),
                uncore: UncoreLevel(rng.next() as usize % node.cfg.uncore.levels),
            };
            let k = node.macro_quanta(node.now() + 10 * MS);
            prop_assert!(k >= 2, "no macro-step to take (k = {})", k);
            let (rates, ..) = node.quantum_rates();
            let got = node.quantum_sums(k, &rates, add_run);
            let want = node.quantum_sums(k, &rates, add_per_core);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(g.is_finite() && w.is_finite(), "sum {} not finite", i);
                let drift = (g - w).abs() / g.abs().max(w.abs()).max(f64::MIN_POSITIVE);
                prop_assert!(drift <= 1e-12, "sum {}: {} vs per-core {} (drift {:e})", i, g, w, drift);
            }
        }
    }
}
