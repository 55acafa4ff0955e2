//! Recovering nodes rather than processes (§6.6.2).
//!
//! "The greatest steady state cost incurred by publishing messages is the
//! routing of intranode messages onto the network." If a site is willing
//! to recover a whole node as a unit, intranode messages need not be
//! published at all — provided the node behaves deterministically upon
//! its *extranode* inputs. The section's recipe, reproduced here as a
//! self-contained model:
//!
//! - a deterministic round-robin scheduler: "the scheduler always runs
//!   the first process in the queue … until it has executed a
//!   predetermined number of instructions or until it attempts to read a
//!   message and none exist";
//! - instruction counting: every extranode message is reported to the
//!   recorder with "how many instructions have been executed prior to
//!   receipt of the message", and on replay "the recovering node will not
//!   use the message until that time."
//!
//! The model runs a node of small deterministic processes exchanging
//! intranode messages freely; only the extranode injection log (the
//! published part) is needed to reproduce the node bit-exactly.

use publishing_sim::rng::DetRng;
use std::collections::VecDeque;

/// An extranode message with its §6.6.2 synchronization tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtEvent {
    /// The node's instruction count when the message was (to be) used.
    pub at_instruction: u64,
    /// Destination process index.
    pub dst: usize,
    /// Payload.
    pub value: u64,
}

/// One process on the node: a deterministic state machine that, on each
/// message, folds it into its state and possibly emits intranode messages
/// (derived purely from its state).
#[derive(Debug, Clone, PartialEq, Eq)]
struct UnitProc {
    state: u64,
    inbox: VecDeque<u64>,
}

impl UnitProc {
    fn new(seed: u64) -> Self {
        UnitProc {
            state: seed.wrapping_mul(2).wrapping_add(1),
            inbox: VecDeque::new(),
        }
    }

    /// Consumes one message; returns intranode sends (dst offset, value)
    /// and an optional externally visible output.
    fn consume(&mut self, msg: u64, n_procs: usize) -> (Vec<(usize, u64)>, Option<u64>) {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(msg)
            .rotate_left(9);
        let mut sends = Vec::new();
        // 0, 1 or 2 intranode sends, chosen deterministically. The
        // branching factor is kept subcritical (mean 0.75) so chatter
        // excursions always die out — a critical process (mean 1.0) can
        // wander for millions of steps on unlucky seeds.
        let n = match (self.state >> 13) % 4 {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        for i in 0..n {
            let dst = ((self.state >> (17 + i)) as usize) % n_procs;
            sends.push((dst, self.state ^ i));
        }
        let output = if self.state.is_multiple_of(5) {
            Some(self.state)
        } else {
            None
        };
        (sends, output)
    }
}

/// A node run as a single recoverable unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeUnit {
    procs: Vec<UnitProc>,
    /// Round-robin run queue (process indices with non-empty inboxes).
    run_queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// Instructions (activations) executed so far — the §6.6.2 counter.
    pub instructions: u64,
    /// Externally visible outputs, in emission order.
    pub outputs: Vec<(u64, usize, u64)>,
    /// Intranode messages exchanged (the traffic §6.6.2 avoids
    /// publishing).
    pub intranode_messages: u64,
}

impl NodeUnit {
    /// Creates a node of `n` processes seeded deterministically.
    pub fn new(n: usize, seed: u64) -> Self {
        NodeUnit {
            procs: (0..n)
                .map(|i| UnitProc::new(seed.wrapping_add(i as u64 * 1297)))
                .collect(),
            run_queue: VecDeque::new(),
            queued: vec![false; n],
            instructions: 0,
            outputs: Vec::new(),
            intranode_messages: 0,
        }
    }

    fn wake(&mut self, p: usize) {
        if !self.queued[p] && !self.procs[p].inbox.is_empty() {
            self.queued[p] = true;
            // "Processes waiting for messages are put back at the head of
            // the queue whenever a message becomes available."
            self.run_queue.push_front(p);
        }
    }

    /// Executes one scheduler quantum (one activation). Returns `false`
    /// if every process is blocked on an empty inbox.
    pub fn step(&mut self) -> bool {
        let Some(p) = self.run_queue.pop_front() else {
            return false;
        };
        self.queued[p] = false;
        let Some(msg) = self.procs[p].inbox.pop_front() else {
            return true;
        };
        let n = self.procs.len();
        let (sends, output) = self.procs[p].consume(msg, n);
        self.instructions += 1;
        if let Some(v) = output {
            self.outputs.push((self.instructions, p, v));
        }
        for (dst, value) in sends {
            self.intranode_messages += 1;
            self.procs[dst].inbox.push_back(value);
            self.wake(dst);
        }
        // Round robin: if it still has work it goes to the back.
        if !self.procs[p].inbox.is_empty() && !self.queued[p] {
            self.queued[p] = true;
            self.run_queue.push_back(p);
        }
        true
    }

    /// Injects an extranode message *now*, returning the synchronization
    /// record to publish.
    pub fn inject(&mut self, dst: usize, value: u64) -> ExtEvent {
        self.procs[dst].inbox.push_back(value);
        self.wake(dst);
        ExtEvent {
            at_instruction: self.instructions,
            dst,
            value,
        }
    }

    /// Runs until all inboxes drain.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }

    /// A digest of the node's complete state (for equivalence checks).
    pub fn state_digest(&self) -> u64 {
        let mut h = publishing_sim::fnv::FNV_OFFSET;
        let mut fold = |v: u64| h = publishing_sim::fnv::fingerprint_fold(h, &v.to_le_bytes());
        for p in &self.procs {
            fold(p.state);
            for &m in &p.inbox {
                fold(m);
            }
        }
        fold(self.instructions);
        h
    }

    /// Recovers a node from scratch by replaying only the published
    /// extranode log: each event is injected exactly when the instruction
    /// counter reaches its recorded value (§6.6.2's synchronization).
    ///
    /// # Panics
    ///
    /// Panics if the log is not ordered by instruction count (a corrupted
    /// log).
    pub fn replay(n: usize, seed: u64, log: &[ExtEvent]) -> NodeUnit {
        assert!(
            log.windows(2)
                .all(|w| w[0].at_instruction <= w[1].at_instruction),
            "extranode log out of order"
        );
        let mut node = NodeUnit::new(n, seed);
        for ev in log {
            // "The recovering node will not use the message until that
            // time"; if the node idles early, the message simply arrives
            // into an idle node — the same state it was injected into.
            while node.instructions < ev.at_instruction {
                if !node.step() {
                    break;
                }
            }
            node.inject(ev.dst, ev.value);
        }
        node.run_to_idle();
        node
    }
}

/// Generates a random extranode workload against a live node and returns
/// `(final node, published log)`.
pub fn run_workload(
    n: usize,
    seed: u64,
    events: usize,
    rng: &mut DetRng,
) -> (NodeUnit, Vec<ExtEvent>) {
    let mut node = NodeUnit::new(n, seed);
    let mut log = Vec::new();
    for _ in 0..events {
        // Interleave: run a random number of quanta, then inject.
        let quanta = rng.below(6);
        for _ in 0..quanta {
            if !node.step() {
                break;
            }
        }
        let dst = rng.index(n);
        let value = rng.next_u64();
        log.push(node.inject(dst, value));
    }
    node.run_to_idle();
    (node, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_from_extranode_log_reproduces_node_exactly() {
        let mut rng = DetRng::new(42);
        let (live, log) = run_workload(4, 7, 100, &mut rng);
        let recovered = NodeUnit::replay(4, 7, &log);
        assert_eq!(recovered.state_digest(), live.state_digest());
        assert_eq!(recovered.outputs, live.outputs);
        assert_eq!(recovered.instructions, live.instructions);
    }

    #[test]
    fn published_traffic_is_a_fraction_of_total() {
        // The §6.6.2 payoff: only extranode messages are published.
        let mut rng = DetRng::new(1);
        let (live, log) = run_workload(6, 3, 200, &mut rng);
        let published = log.len() as u64;
        let total = published + live.intranode_messages;
        assert!(
            live.intranode_messages > published,
            "workload should be intranode-dominated: {} intranode vs {} extranode",
            live.intranode_messages,
            published
        );
        assert!(total > 0);
    }

    #[test]
    fn wrong_injection_time_diverges() {
        // Moving one extranode message by a single instruction changes the
        // interleaving — demonstrating why the instruction-count sync is
        // necessary, not pedantry.
        let mut rng = DetRng::new(9);
        let (live, log) = run_workload(4, 11, 80, &mut rng);
        // Some single-event one-instruction skew must change the outcome.
        let mut any_divergence = false;
        for i in 0..log.len() {
            let mut skewed = log.clone();
            skewed[i].at_instruction += 1;
            let ordered = skewed
                .windows(2)
                .all(|w| w[0].at_instruction <= w[1].at_instruction);
            if !ordered {
                continue;
            }
            let recovered = NodeUnit::replay(4, 11, &skewed);
            if recovered.state_digest() != live.state_digest() {
                any_divergence = true;
                break;
            }
        }
        assert!(
            any_divergence,
            "a one-instruction skew must be observable somewhere"
        );
    }

    #[test]
    fn scheduler_is_deterministic() {
        let run = |seed| {
            let mut rng = DetRng::new(seed);
            let (node, _) = run_workload(5, 2, 150, &mut rng);
            (node.state_digest(), node.outputs)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn empty_log_replays_to_fresh_node() {
        let node = NodeUnit::replay(3, 1, &[]);
        assert_eq!(node.instructions, 0);
        assert!(node.outputs.is_empty());
        assert_eq!(node.state_digest(), NodeUnit::new(3, 1).state_digest());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn disordered_log_rejected() {
        let log = [
            ExtEvent {
                at_instruction: 5,
                dst: 0,
                value: 1,
            },
            ExtEvent {
                at_instruction: 2,
                dst: 0,
                value: 2,
            },
        ];
        NodeUnit::replay(2, 1, &log);
    }
}
