//! Algorithm 1: construction of an NSA instance from a system
//! configuration.
//!
//! [`SystemModel::build`] walks the configuration exactly as the paper's
//! Algorithm 1 does — cores, then the partitions bound to each core (task
//! automata first, then the partition's scheduler), then one core-scheduler
//! automaton per used core, then one link automaton per message — creating
//! the shared variables and channels of the general model's interface along
//! the way. The resulting [`SystemModel`] pairs the network with a
//! [`ModelMap`] that lets traces be translated back to system-level events.

use std::collections::HashMap;

use swa_ima::{Configuration, CoreRef, PartitionId, SchedulerKind, TaskRef};
use swa_nsa::{
    ArrayId, AutomatonId, ChannelId, Network, NetworkBuilder, SimError, SimOutcome, Simulator,
    TieBreak, VarId,
};

use crate::error::ModelError;
use crate::templates::{
    cs::{cs_automaton, window_events},
    link::{link_template, HopParams, LinkShape},
    sched::{sched_template, SchedParams},
    task::{task_template, TaskParams},
    Ctx,
};

/// What a channel of the generated network means at the system level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelRole {
    /// `exec_g`: start/resume execution of the job of global task `g`.
    Exec(usize),
    /// `preempt_g`: preempt the job of global task `g`.
    Preempt(usize),
    /// `ready_j`: a job of partition `j` became ready.
    Ready(usize),
    /// `finished_j`: a job of partition `j` finished (completion or
    /// deadline).
    Finished(usize),
    /// `wakeup_j`: a window of partition `j` starts.
    Wakeup(usize),
    /// `sleep_j`: a window of partition `j` ends.
    Sleep(usize),
    /// `send_g`: task `g` published its outputs.
    Send(usize),
    /// `receive_g`: a virtual link delivered data to task `g`.
    Receive(usize),
}

/// Mapping between the generated network and the configuration.
#[derive(Debug, Clone)]
pub struct ModelMap {
    /// Hyperperiod `L`.
    pub hyperperiod: i64,
    /// Simulation horizon (`span_end + max_offset + 1`, so that events at
    /// exactly the boundary — e.g. a completion or kill of an offset task's
    /// last job — are observed).
    pub horizon: i64,
    /// End of the analyzed span (`hyperperiods · L`); jobs released at or
    /// after this instant belong to the next span and are dropped.
    pub span_end: i64,
    /// Task references in global-index order.
    pub task_refs: Vec<TaskRef>,
    /// Global index of each task.
    pub global_index: HashMap<TaskRef, usize>,
    /// First global task index of each partition.
    pub partition_base: Vec<usize>,
    /// Automaton of each task, by global index.
    pub task_automata: Vec<AutomatonId>,
    /// Scheduler automaton of each partition.
    pub ts_automata: Vec<AutomatonId>,
    /// Core-scheduler automata for every core that hosts partitions.
    pub cs_automata: Vec<(CoreRef, AutomatonId)>,
    /// The automaton that *delivers* each message (the single link, or the
    /// last hop of a routed chain).
    pub link_automata: Vec<AutomatonId>,
    /// For routed messages, every hop automaton in traversal order (a
    /// single entry for direct messages).
    pub link_chain_automata: Vec<Vec<AutomatonId>>,
    /// Effective end-to-end worst-case delay per message (the configured
    /// delay, or the hop sum under a topology).
    pub link_delays: Vec<i64>,
    /// Role of every channel, by channel id.
    pub channel_roles: HashMap<ChannelId, ChannelRole>,
    /// Global task index of each task automaton (reverse of
    /// `task_automata`).
    pub task_of_automaton: HashMap<AutomatonId, usize>,
    /// The shared `is_failed` array (for post-run inspection).
    pub is_failed: ArrayId,
    /// The shared `is_ready` array.
    pub is_ready: ArrayId,
    /// The shared static-priority array.
    pub prio: ArrayId,
    /// The shared absolute-deadline array.
    pub abs_deadline: ArrayId,
    /// The shared `is_data_ready` array.
    pub is_data_ready: ArrayId,
    /// The shared overrun flag (for post-run inspection).
    pub vl_overrun: VarId,
    /// Per-task `exec` channels, by global index.
    pub exec_ch: Vec<ChannelId>,
    /// Per-task `preempt` channels, by global index.
    pub preempt_ch: Vec<ChannelId>,
    /// Per-task `send` channels, by global index.
    pub send_ch: Vec<ChannelId>,
    /// Per-task `receive` channels, by global index.
    pub receive_ch: Vec<ChannelId>,
    /// Per-partition `ready` channels.
    pub ready_ch: Vec<ChannelId>,
    /// Per-partition `finished` channels.
    pub finished_ch: Vec<ChannelId>,
    /// Per-partition `wakeup` channels.
    pub wakeup_ch: Vec<ChannelId>,
    /// Per-partition `sleep` channels.
    pub sleep_ch: Vec<ChannelId>,
}

/// A configuration compiled to a network of stopwatch automata.
#[derive(Debug, Clone)]
pub struct SystemModel {
    network: Network,
    map: ModelMap,
}

impl SystemModel {
    /// Builds the NSA instance for a configuration (Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the configuration fails
    /// validation, [`ModelError::DelayExceedsPeriod`] when a message's
    /// worst-case delay does not fit within its tasks' period, and
    /// [`ModelError::Network`] if the generated network is malformed (an
    /// internal invariant violation).
    pub fn build(config: &Configuration) -> Result<Self, ModelError> {
        Self::build_with_topology(config, None)
    }

    /// As [`build`](Self::build), with a switched-network topology: routed
    /// messages get one hop automaton per traversed switch (the paper's
    /// future-work extension) instead of a single-jump link.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build); the end-to-end (summed) delay of a routed
    /// message must still fit within its tasks' period.
    pub fn build_with_topology(
        config: &Configuration,
        topology: Option<&swa_ima::Topology>,
    ) -> Result<Self, ModelError> {
        Self::build_full(config, topology, 1)
    }

    /// As [`build`](Self::build), simulating `hyperperiods ≥ 1` repetitions
    /// of the window schedule. The trace of a deterministic model is
    /// periodic with period `L`, which the multi-hyperperiod tests assert;
    /// spanning several hyperperiods is also how steady-state behavior
    /// after a transient would be studied.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    pub fn build_spanning(config: &Configuration, hyperperiods: u32) -> Result<Self, ModelError> {
        Self::build_full(config, None, i64::from(hyperperiods.max(1)))
    }

    /// The fully general constructor: optional switched-network topology
    /// and a `hyperperiods ≥ 1` analysis span — the form
    /// [`crate::Analyzer`] builds through.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    pub fn build_spanning_with_topology(
        config: &Configuration,
        topology: Option<&swa_ima::Topology>,
        hyperperiods: u32,
    ) -> Result<Self, ModelError> {
        Self::build_full(config, topology, i64::from(hyperperiods.max(1)))
    }

    fn build_full(
        config: &Configuration,
        topology: Option<&swa_ima::Topology>,
        span: i64,
    ) -> Result<Self, ModelError> {
        config.validate().map_err(ModelError::InvalidConfig)?;
        let hyperperiod = config.hyperperiod().expect("validated configs have L");
        // Offset tasks' last jobs can have deadlines up to `max_offset`
        // beyond the analyzed span; extend the horizon so their outcomes
        // are observed.
        let max_offset = config.tasks().map(|(_, t)| t.offset).max().unwrap_or(0);
        let span_end = hyperperiod * span;
        let horizon = span_end + max_offset + 1;

        // Per-message hop decomposition (single wire hop when no topology).
        let hop_delays_of = |mid: swa_ima::MessageId| -> Vec<i64> {
            let wire = config.message_delay(mid).expect("validated message");
            topology.map_or_else(|| vec![wire], |t| t.hop_delays(mid, wire))
        };

        // Reject messages whose end-to-end delay could overlap the next
        // instance.
        for (mid, m) in config.messages.iter().enumerate() {
            let mid =
                swa_ima::MessageId::from_raw(u32::try_from(mid).expect("message count fits u32"));
            let delay: i64 = hop_delays_of(mid).iter().sum();
            let period = config.task(m.sender).expect("validated sender").period;
            if delay >= period {
                return Err(ModelError::DelayExceedsPeriod {
                    message: mid,
                    delay,
                    period,
                });
            }
        }

        // Global task indexing (partition-major, matching
        // `Configuration::tasks()`).
        let task_refs: Vec<TaskRef> = config.tasks().map(|(tr, _)| tr).collect();
        let global_index: HashMap<TaskRef, usize> = task_refs
            .iter()
            .enumerate()
            .map(|(i, tr)| (*tr, i))
            .collect();
        let mut partition_base = Vec::with_capacity(config.partitions.len());
        {
            let mut base = 0;
            for p in &config.partitions {
                partition_base.push(base);
                base += p.tasks.len();
            }
        }
        let task_count = task_refs.len();
        let msg_count = config.messages.len();

        let mut nb = NetworkBuilder::new();

        // Shared arrays (the general model's shared variables).
        let priorities: Vec<i64> = config.tasks().map(|(_, t)| t.priority).collect();
        let max_prio = priorities.iter().copied().max().unwrap_or(0);
        let max_releases = config
            .tasks()
            .map(|(_, t)| hyperperiod / t.period)
            .max()
            .unwrap_or(0)
            * span
            + 2;
        let is_ready = nb.array("is_ready", vec![0; task_count], 0, 1);
        let is_failed = nb.array("is_failed", vec![0; task_count], 0, 1);
        let prio = nb.array("prio", priorities, 0, max_prio);
        let dl_bound = hyperperiod
            .saturating_mul(4 * span.max(1))
            .saturating_add(4);
        let abs_deadline = nb.array("abs_deadline", vec![0; task_count], 0, dl_bound);
        let nrel = nb.array("nrel", vec![0; task_count], 0, max_releases);
        let is_data_ready = nb.array("is_data_ready", vec![0; msg_count.max(1)], 0, 1);
        let vl_overrun = nb.flag("vl_overrun", false);

        // Channels, with their system-level roles.
        let mut channel_roles =
            HashMap::with_capacity(4 * (task_count + config.partitions.len()) + msg_count);
        let mut exec_ch = Vec::with_capacity(task_count);
        let mut preempt_ch = Vec::with_capacity(task_count);
        let mut send_ch = Vec::with_capacity(task_count);
        let mut receive_ch = Vec::with_capacity(task_count);
        for g in 0..task_count {
            let e = nb.binary_channel(format!("exec_{g}"));
            channel_roles.insert(e, ChannelRole::Exec(g));
            exec_ch.push(e);
            let p = nb.binary_channel(format!("preempt_{g}"));
            channel_roles.insert(p, ChannelRole::Preempt(g));
            preempt_ch.push(p);
            let s = nb.broadcast_channel(format!("send_{g}"));
            channel_roles.insert(s, ChannelRole::Send(g));
            send_ch.push(s);
            let r = nb.broadcast_channel(format!("receive_{g}"));
            channel_roles.insert(r, ChannelRole::Receive(g));
            receive_ch.push(r);
        }
        let mut ready_ch = Vec::with_capacity(config.partitions.len());
        let mut finished_ch = Vec::with_capacity(config.partitions.len());
        let mut wakeup_ch = Vec::with_capacity(config.partitions.len());
        let mut sleep_ch = Vec::with_capacity(config.partitions.len());
        for j in 0..config.partitions.len() {
            let r = nb.binary_channel(format!("ready_{j}"));
            channel_roles.insert(r, ChannelRole::Ready(j));
            ready_ch.push(r);
            let f = nb.binary_channel(format!("finished_{j}"));
            channel_roles.insert(f, ChannelRole::Finished(j));
            finished_ch.push(f);
            let w = nb.binary_channel(format!("wakeup_{j}"));
            channel_roles.insert(w, ChannelRole::Wakeup(j));
            wakeup_ch.push(w);
            let s = nb.binary_channel(format!("sleep_{j}"));
            channel_roles.insert(s, ChannelRole::Sleep(j));
            sleep_ch.push(s);
        }

        let ctx = Ctx {
            hyperperiod,
            is_ready,
            is_failed,
            prio,
            abs_deadline,
            nrel,
            is_data_ready,
            vl_overrun,
            exec_ch,
            preempt_ch,
            send_ch,
            receive_ch,
            ready_ch,
            finished_ch,
            wakeup_ch,
            sleep_ch,
            partition_base: partition_base.clone(),
        };

        // Input messages per task.
        let mut inputs_of: HashMap<usize, Vec<usize>> = HashMap::new();
        for (h, m) in config.messages.iter().enumerate() {
            let g = global_index[&m.receiver];
            inputs_of.entry(g).or_default().push(h);
        }

        // Algorithm 1: per core, per bound partition, create task automata
        // then the partition scheduler; then the core scheduler; finally the
        // links. Each task, scheduler and link automaton instantiates the
        // template of its shape, built on the shape's first use.
        let mut task_automata = vec![AutomatonId::from_raw(0); task_count];
        let mut ts_automata = vec![AutomatonId::from_raw(0); config.partitions.len()];
        let mut cs_automata = Vec::new();
        let mut task_of_automaton = HashMap::with_capacity(task_count);
        let mut task_templates = HashMap::new();
        let mut sched_templates = HashMap::new();
        let mut link_templates = HashMap::new();

        for (core_ref, core) in config.cores() {
            let partitions: Vec<PartitionId> = config.partitions_on(core_ref).collect();
            if partitions.is_empty() {
                continue;
            }
            for &pid in &partitions {
                let j = pid.index();
                let partition = &config.partitions[j];
                for (k, task) in partition.tasks.iter().enumerate() {
                    let tr = TaskRef::new(pid, u32::try_from(k).expect("task count fits u32"));
                    let g = global_index[&tr];
                    let params = TaskParams {
                        g,
                        j,
                        wcet: task.wcet_on(core.core_type),
                        period: task.period,
                        deadline: task.deadline,
                        offset: task.offset,
                        inputs: inputs_of.get(&g).cloned().unwrap_or_default(),
                        rel: nb.clock(format!("rel_{g}")),
                        exe: nb.stopped_clock(format!("exe_{g}")),
                    };
                    let template = *task_templates
                        .entry(params.shape())
                        .or_insert_with(|| nb.template(task_template(&ctx, params.shape())));
                    let name = format!("T{g}_{}_{}", partition.name, task.name);
                    let aid = nb.instance(template, params.frame(name, &ctx));
                    task_automata[g] = aid;
                    task_of_automaton.insert(aid, g);
                }
                let k_tasks = i64::try_from(partition.tasks.len()).expect("task count fits i64");
                let running = nb.var(format!("running_{j}"), 0, 0, k_tasks);
                // Round-robin schedulers own a last-served index and the
                // quantum clock.
                let rr =
                    matches!(partition.scheduler, SchedulerKind::RoundRobin { .. }).then(|| {
                        let last = nb.var(format!("rr_last_{j}"), k_tasks - 1, 0, k_tasks - 1);
                        (last, nb.clock(format!("rr_q_{j}")))
                    });
                let params = SchedParams {
                    j,
                    k_tasks: partition.tasks.len(),
                    kind: partition.scheduler,
                    running,
                    rr,
                };
                let kind_tag = match partition.scheduler {
                    SchedulerKind::Fpps => "FPPS",
                    SchedulerKind::Fpnps => "FPNPS",
                    SchedulerKind::Edf => "EDF",
                    SchedulerKind::RoundRobin { .. } => "RR",
                };
                let template = *sched_templates
                    .entry(params.shape())
                    .or_insert_with(|| nb.template(sched_template(&ctx, params.shape())));
                let name = format!("TS{j}_{}_{kind_tag}", partition.name);
                ts_automata[j] = nb.instance(template, params.frame(name, &ctx));
            }

            // Core scheduler for this core.
            let windows: Vec<(PartitionId, Vec<swa_ima::Window>)> = partitions
                .iter()
                .map(|&pid| (pid, config.windows[pid.index()].clone()))
                .collect();
            let events = window_events(&windows);
            let clock = nb.clock(format!("wc_{}_{}", core_ref.module.index(), core_ref.core));
            let name = format!("CS_{}_{}", core_ref.module.index(), core_ref.core);
            let aid = nb.automaton(cs_automaton(name, &ctx, &events, clock));
            cs_automata.push((core_ref, aid));
        }

        // Virtual links: one automaton for a direct message, a hop chain
        // for a routed one (relay channels link consecutive hops).
        let mut link_automata = Vec::with_capacity(msg_count);
        let mut link_chain_automata = Vec::with_capacity(msg_count);
        let mut link_delays = Vec::with_capacity(msg_count);
        for (h, m) in config.messages.iter().enumerate() {
            let mid =
                swa_ima::MessageId::from_raw(u32::try_from(h).expect("message count fits u32"));
            let hops = hop_delays_of(mid);
            link_delays.push(hops.iter().sum());
            let name = format!("L{h}_{}", m.name);
            let n = hops.len();
            let clocks: Vec<_> = if n == 1 {
                vec![nb.clock(format!("vl_{h}"))]
            } else {
                (0..n).map(|i| nb.clock(format!("vl_{h}_{i}"))).collect()
            };
            let mut channels = vec![ctx.send_ch[global_index[&m.sender]]];
            channels.extend((0..n - 1).map(|i| nb.broadcast_channel(format!("vl_relay_{h}_{i}"))));
            channels.push(ctx.receive_ch[global_index[&m.receiver]]);
            let chain: Vec<AutomatonId> = (0..n)
                .map(|i| {
                    let (shape, name) = if n == 1 {
                        (LinkShape::Direct, name.clone())
                    } else {
                        (
                            LinkShape::Hop { last: i == n - 1 },
                            format!("{name}_hop{i}"),
                        )
                    };
                    let template = *link_templates
                        .entry(shape)
                        .or_insert_with(|| nb.template(link_template(&ctx, shape)));
                    let hop = HopParams {
                        h,
                        delay: hops[i],
                        clock: clocks[i],
                        input: channels[i],
                        output: channels[i + 1],
                    };
                    nb.instance(template, hop.frame(name, &ctx))
                })
                .collect();
            link_automata.push(*chain.last().expect("nonempty chain"));
            link_chain_automata.push(chain);
        }

        let network = nb.build()?;
        Ok(Self {
            network,
            map: ModelMap {
                hyperperiod,
                horizon,
                span_end,
                task_refs,
                global_index,
                partition_base,
                task_automata,
                ts_automata,
                cs_automata,
                link_automata,
                link_chain_automata,
                link_delays,
                channel_roles,
                task_of_automaton,
                is_failed,
                is_ready,
                prio,
                abs_deadline,
                is_data_ready,
                vl_overrun,
                exec_ch: ctx.exec_ch.clone(),
                preempt_ch: ctx.preempt_ch.clone(),
                send_ch: ctx.send_ch.clone(),
                receive_ch: ctx.receive_ch.clone(),
                ready_ch: ctx.ready_ch.clone(),
                finished_ch: ctx.finished_ch.clone(),
                wakeup_ch: ctx.wakeup_ch.clone(),
                sleep_ch: ctx.sleep_ch.clone(),
            },
        })
    }

    /// The generated network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The configuration ↔ network mapping.
    #[must_use]
    pub fn map(&self) -> &ModelMap {
        &self.map
    }

    /// The hyperperiod `L`.
    #[must_use]
    pub fn hyperperiod(&self) -> i64 {
        self.map.hyperperiod
    }

    /// The simulation horizon, `hyperperiods · L + max_offset + 1` (see
    /// [`ModelMap::horizon`]).
    #[must_use]
    pub fn horizon(&self) -> i64 {
        self.map.horizon
    }

    /// Interprets the model over one hyperperiod with the canonical
    /// deterministic order, producing the model trace.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`]s; a validated configuration should never
    /// produce one (any error indicates a modeling bug).
    pub fn simulate(&self) -> Result<SimOutcome, SimError> {
        self.simulator().run()
    }

    /// As [`simulate`](Self::simulate) with an explicit tie-break order
    /// (used by the determinism experiments).
    ///
    /// # Errors
    ///
    /// As [`simulate`](Self::simulate).
    pub fn simulate_with_tie_break(&self, tie_break: TieBreak) -> Result<SimOutcome, SimError> {
        self.simulator().tie_break(tie_break).run()
    }

    /// A preconfigured simulator over this model (horizon set, trace on).
    #[must_use]
    pub fn simulator(&self) -> Simulator<'_> {
        Simulator::new(&self.network).horizon(self.map.horizon)
    }
}
