//! # majorcan-sim — a bit-synchronous wired-AND bus simulator
//!
//! The simulation substrate of the MajorCAN reproduction (Proenza &
//! Miro-Julia, *MajorCAN: A Modification to the Controller Area Network
//! Protocol to Achieve Atomic Broadcast*, ICDCS 2000).
//!
//! Every inconsistency scenario in that paper hinges on one physical fact:
//! different nodes can see **different values of the same bus bit**. This
//! crate models exactly that and nothing more:
//!
//! * a [`Level`]-valued wired-AND bus (dominant wins);
//! * [`BitNode`]s that drive a level each bit time and then observe their own
//!   — possibly disturbed — view of the resolved level;
//! * a [`ChannelModel`] deciding per `(bit, node)` whether a view is
//!   inverted, which is the paper's spatial error model (`p_eff`, Eq. 1–3);
//! * a deterministic [`Simulator`] engine with an event log and an optional
//!   [`BitTrace`] recorder able to render the paper's figure notation.
//!
//! Protocol behaviour (frames, error flags, MajorCAN's agreement phase, …)
//! lives in the `majorcan-can` and `majorcan-core` crates; rich fault models
//! live in `majorcan-faults`. Experiment code does not drive this engine
//! directly: whole protocol clusters are assembled and run through the
//! `majorcan-testbed` facade, which wraps a `Simulator` per protocol and
//! reuses its allocations across runs. The example below uses a custom
//! [`BitNode`] — the engine's own extension point, which the testbed does
//! not cover.
//!
//! # Examples
//!
//! ```
//! use majorcan_sim::{BitNode, FnChannel, Level, NodeId, Simulator};
//!
//! /// A trivial node: drives recessive, remembers what it saw.
//! struct Listener { seen: Vec<Level> }
//!
//! impl BitNode for Listener {
//!     type Tag = ();
//!     type Event = ();
//!     fn drive(&mut self, _now: u64) -> Level { Level::Recessive }
//!     fn tag(&self) {}
//!     fn observe(&mut self, _now: u64, seen: Level, _ev: &mut Vec<()>) {
//!         self.seen.push(seen);
//!     }
//! }
//!
//! // A disturbance at bit 2 inverts node 0's view only — node 1 still sees
//! // the true recessive bus. This is the root cause of every CAN
//! // inconsistency scenario in the paper.
//! let channel = FnChannel(|bit: u64, node: NodeId, _: &(), _| bit == 2 && node == NodeId(0));
//! let mut sim = Simulator::new(channel);
//! let a = sim.attach(Listener { seen: vec![] });
//! let b = sim.attach(Listener { seen: vec![] });
//! sim.run(4);
//! assert_eq!(sim.node(a).seen[2], Level::Dominant);   // disturbed view
//! assert_eq!(sim.node(b).seen[2], Level::Recessive);  // true view
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod engine;
mod level;
mod node;
mod trace;

pub use channel::{ChannelModel, FnChannel, NoFaults};
pub use engine::{SimSnapshot, Simulator};
pub use level::Level;
pub use node::{BitNode, NodeId, TimedEvent};
pub use trace::{BitRecord, BitTrace, NodeBit};
