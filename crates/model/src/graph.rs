//! The diagram graph: blocks, wires, event wires, execution ordering.
//!
//! A [`Diagram`] owns the blocks and their connections. Before simulation
//! (or code generation — RTW combines per-block code "according to the data
//! flow in the model", §3) the diagram is sorted topologically over the
//! *direct-feedthrough* edges; a cycle among feedthrough edges is an
//! algebraic loop and is rejected, exactly as Simulink reports it.

use crate::block::{Block, ParamValue, PortCount, SampleTime};
use std::collections::HashMap;

/// Handle to a block inside a diagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) usize);

impl BlockId {
    /// Raw index (stable for the diagram's lifetime).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Handle for a raw index — for building synthetic
    /// [`DiagramFingerprint`]s (static analysis fixtures); using a
    /// fabricated id against a diagram it did not come from is a logic
    /// error.
    pub fn from_index(i: usize) -> BlockId {
        BlockId(i)
    }
}

/// Errors raised while building or sorting a diagram.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// A port reference was out of range for the block.
    BadPort {
        /// Offending block name.
        block: String,
        /// Port index used.
        port: usize,
        /// What kind of port was referenced.
        kind: &'static str,
    },
    /// An input port was connected twice.
    InputTaken {
        /// Block whose input is already driven.
        block: String,
        /// The input port index.
        port: usize,
    },
    /// The feedthrough subgraph contains a cycle (algebraic loop).
    AlgebraicLoop {
        /// Names of the blocks on the loop.
        blocks: Vec<String>,
    },
    /// An event wire targets a block that is not triggered.
    NotTriggered {
        /// The target block name.
        block: String,
    },
    /// Duplicate block name.
    DuplicateName(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadPort { block, port, kind } => {
                write!(f, "block '{block}' has no {kind} port {port}")
            }
            GraphError::InputTaken { block, port } => {
                write!(f, "input {port} of block '{block}' is already connected")
            }
            GraphError::AlgebraicLoop { blocks } => {
                write!(f, "algebraic loop through: {}", blocks.join(" -> "))
            }
            GraphError::NotTriggered { block } => {
                write!(f, "event wire targets non-triggered block '{block}'")
            }
            GraphError::DuplicateName(n) => write!(f, "duplicate block name '{n}'"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A source endpoint: output `port` of `block`.
pub type Source = (BlockId, usize);
/// A destination endpoint: input `port` of `block`.
pub type Dest = (BlockId, usize);

/// Structural snapshot of one block inside a [`DiagramFingerprint`].
#[derive(Clone, Debug, PartialEq)]
pub struct BlockFingerprint {
    /// The block's name in the diagram.
    pub name: String,
    /// Library type name (`"Gain"`, `"Sum"`…).
    pub type_name: String,
    /// Code-generation parameter bag, in the block's declared order.
    pub params: Vec<(String, ParamValue)>,
    /// Port configuration.
    pub ports: PortCount,
    /// Whether the block has direct feedthrough.
    pub feedthrough: bool,
    /// The block's sample time.
    pub sample: SampleTime,
    /// Driving source of each input port (`None` = unconnected).
    pub sources: Vec<Option<Source>>,
    /// Triggered target of each event port (`None` = unconnected).
    pub event_targets: Vec<Option<BlockId>>,
}

/// Structural fingerprint of a whole diagram: block identities, parameter
/// bags, sample times, and the full wiring, in insertion order.
///
/// Two diagrams built independently from the same specification compare
/// equal — this is the introspection/comparison hook used by differential
/// harnesses (`peert-verify`) to assert that separately instantiated
/// copies of a model really are the same model before executing them
/// down different paths.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagramFingerprint {
    /// One entry per block, in insertion order.
    pub blocks: Vec<BlockFingerprint>,
}

/// The model graph.
pub struct Diagram {
    pub(crate) blocks: Vec<Box<dyn Block>>,
    pub(crate) names: Vec<String>,
    /// For each (block, input port): the driving source.
    pub(crate) wires: HashMap<(usize, usize), Source>,
    /// For each (block, event port): the triggered target block.
    pub(crate) event_wires: HashMap<(usize, usize), BlockId>,
}

impl Default for Diagram {
    fn default() -> Self {
        Self::new()
    }
}

impl Diagram {
    /// New empty diagram.
    pub fn new() -> Self {
        Diagram {
            blocks: Vec::new(),
            names: Vec::new(),
            wires: HashMap::new(),
            event_wires: HashMap::new(),
        }
    }

    /// Add a block under a unique `name`.
    pub fn add(&mut self, name: impl Into<String>, block: impl Block + 'static) -> Result<BlockId, GraphError> {
        self.add_boxed(name.into(), Box::new(block))
    }

    /// Add an already-boxed block.
    pub fn add_boxed(&mut self, name: String, block: Box<dyn Block>) -> Result<BlockId, GraphError> {
        if self.names.contains(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        self.blocks.push(block);
        self.names.push(name);
        Ok(BlockId(self.blocks.len() - 1))
    }

    /// Connect output `src` to input `dst`.
    pub fn connect(&mut self, src: Source, dst: Dest) -> Result<(), GraphError> {
        let sp = self.blocks[src.0 .0].ports();
        if src.1 >= sp.outputs {
            return Err(GraphError::BadPort {
                block: self.names[src.0 .0].clone(),
                port: src.1,
                kind: "output",
            });
        }
        let dp = self.blocks[dst.0 .0].ports();
        if dst.1 >= dp.inputs {
            return Err(GraphError::BadPort {
                block: self.names[dst.0 .0].clone(),
                port: dst.1,
                kind: "input",
            });
        }
        if self.wires.contains_key(&(dst.0 .0, dst.1)) {
            return Err(GraphError::InputTaken { block: self.names[dst.0 .0].clone(), port: dst.1 });
        }
        self.wires.insert((dst.0 .0, dst.1), src);
        Ok(())
    }

    /// Connect event port `event` of `src` to the triggered block `dst`.
    pub fn connect_event(&mut self, src: BlockId, event: usize, dst: BlockId) -> Result<(), GraphError> {
        let sp = self.blocks[src.0].ports();
        if event >= sp.events {
            return Err(GraphError::BadPort {
                block: self.names[src.0].clone(),
                port: event,
                kind: "event",
            });
        }
        if self.blocks[dst.0].sample() != SampleTime::Triggered {
            return Err(GraphError::NotTriggered { block: self.names[dst.0].clone() });
        }
        self.event_wires.insert((src.0, event), dst);
        Ok(())
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the diagram is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Name of a block.
    pub fn name(&self, id: BlockId) -> &str {
        &self.names[id.0]
    }

    /// Look up a block id by name.
    pub fn find(&self, name: &str) -> Option<BlockId> {
        self.names.iter().position(|n| n == name).map(BlockId)
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &dyn Block {
        self.blocks[id.0].as_ref()
    }

    /// Mutable access to a block (for parameter tweaks between runs).
    pub fn block_mut(&mut self, id: BlockId) -> &mut dyn Block {
        self.blocks[id.0].as_mut()
    }

    /// The source driving input `(block, port)`, if connected.
    pub fn source_of(&self, dst: Dest) -> Option<Source> {
        self.wires.get(&(dst.0 .0, dst.1)).copied()
    }

    /// The triggered block wired to event port `(src, event)`, if any.
    pub fn event_target_of(&self, src: BlockId, event: usize) -> Option<BlockId> {
        self.event_wires.get(&(src.0, event)).copied()
    }

    /// Structural fingerprint of the diagram — see [`DiagramFingerprint`].
    pub fn fingerprint(&self) -> DiagramFingerprint {
        let blocks = self
            .ids()
            .map(|id| {
                let b = self.block(id);
                let ports = b.ports();
                BlockFingerprint {
                    name: self.name(id).to_string(),
                    type_name: b.type_name().to_string(),
                    params: b
                        .params()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                    ports,
                    feedthrough: b.feedthrough(),
                    sample: b.sample(),
                    sources: (0..ports.inputs).map(|p| self.source_of((id, p))).collect(),
                    event_targets: (0..ports.events)
                        .map(|e| self.event_target_of(id, e))
                        .collect(),
                }
            })
            .collect();
        DiagramFingerprint { blocks }
    }

    /// The fields of [`Diagram::fingerprint`] encoded into one byte
    /// buffer — the compact exact key of the plan cache.
    ///
    /// The encoding is injective: lengths and indices are LEB128
    /// varints, strings are length-prefixed, enums are tagged and each
    /// `f64` is written as its bits. Equal keys therefore mean equal
    /// fingerprints and vice versa, except where bitwise and `PartialEq`
    /// comparison of `f64` differ: a `0.0` and a `-0.0` parameter key
    /// apart, and a NaN keys equal to a NaN with the same bits.
    pub fn structural_key(&self) -> Vec<u8> {
        fn uint(k: &mut Vec<u8>, mut v: u64) {
            while v >= 0x80 {
                k.push(v as u8 | 0x80);
                v >>= 7;
            }
            k.push(v as u8);
        }
        fn text(k: &mut Vec<u8>, s: &str) {
            uint(k, s.len() as u64);
            k.extend_from_slice(s.as_bytes());
        }
        fn bits(k: &mut Vec<u8>, v: f64) {
            k.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut k = Vec::with_capacity(32 * self.blocks.len());
        uint(&mut k, self.blocks.len() as u64);
        for id in self.ids() {
            let b = self.block(id);
            text(&mut k, self.name(id));
            text(&mut k, b.type_name());
            let params = b.params();
            uint(&mut k, params.len() as u64);
            for (name, v) in &params {
                text(&mut k, name);
                match v {
                    ParamValue::F(x) => {
                        k.push(0);
                        bits(&mut k, *x);
                    }
                    ParamValue::I(x) => {
                        k.push(1);
                        k.extend_from_slice(&x.to_le_bytes());
                    }
                    ParamValue::S(s) => {
                        k.push(2);
                        text(&mut k, s);
                    }
                }
            }
            let ports = b.ports();
            uint(&mut k, ports.inputs as u64);
            uint(&mut k, ports.outputs as u64);
            uint(&mut k, ports.events as u64);
            k.push(u8::from(b.feedthrough()));
            match b.sample() {
                SampleTime::Continuous => k.push(0),
                SampleTime::Discrete { period, offset } => {
                    k.push(1);
                    bits(&mut k, period);
                    bits(&mut k, offset);
                }
                SampleTime::Triggered => k.push(2),
            }
            for p in 0..ports.inputs {
                match self.source_of((id, p)) {
                    None => k.push(0),
                    Some((src, port)) => {
                        k.push(1);
                        uint(&mut k, src.0 as u64);
                        uint(&mut k, port as u64);
                    }
                }
            }
            for e in 0..ports.events {
                match self.event_target_of(id, e) {
                    None => k.push(0),
                    Some(dst) => {
                        k.push(1);
                        uint(&mut k, dst.0 as u64);
                    }
                }
            }
        }
        k
    }

    /// Iterate block ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId)
    }

    /// Compute an execution order compatible with direct-feedthrough
    /// dependencies (Kahn's algorithm); detects algebraic loops.
    ///
    /// Triggered blocks are excluded — they run on events, not in the
    /// periodic sweep.
    pub fn sorted_order(&self) -> Result<Vec<BlockId>, GraphError> {
        let n = self.blocks.len();
        // edges src -> dst where dst has feedthrough
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (&(dst, _port), &(src, _)) in &self.wires {
            if self.blocks[dst].feedthrough() && src.0 != dst {
                succ[src.0].push(dst);
                indeg[dst] += 1;
            }
        }
        let triggered: Vec<bool> =
            self.blocks.iter().map(|b| b.sample() == SampleTime::Triggered).collect();
        let mut queue: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut seen = 0usize;
        while let Some(std::cmp::Reverse(i)) = queue.pop() {
            seen += 1;
            if !triggered[i] {
                order.push(BlockId(i));
            }
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(std::cmp::Reverse(s));
                }
            }
        }
        if seen != n {
            let blocks = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.names[i].clone())
                .collect();
            return Err(GraphError::AlgebraicLoop { blocks });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockCtx, PortCount};

    struct Pass;
    impl Block for Pass {
        fn type_name(&self) -> &'static str {
            "Pass"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(1, 1)
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            let v = ctx.input(0);
            ctx.set_output(0, v);
        }
    }

    struct Delay;
    impl Block for Delay {
        fn type_name(&self) -> &'static str {
            "Delay"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(1, 1)
        }
        fn feedthrough(&self) -> bool {
            false
        }
        fn output(&mut self, _ctx: &mut BlockCtx) {}
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut d = Diagram::new();
        d.add("a", Pass).unwrap();
        assert!(matches!(d.add("a", Pass), Err(GraphError::DuplicateName(_))));
    }

    #[test]
    fn bad_ports_are_rejected() {
        let mut d = Diagram::new();
        let a = d.add("a", Pass).unwrap();
        let b = d.add("b", Pass).unwrap();
        assert!(matches!(d.connect((a, 1), (b, 0)), Err(GraphError::BadPort { .. })));
        assert!(matches!(d.connect((a, 0), (b, 7)), Err(GraphError::BadPort { .. })));
    }

    #[test]
    fn double_driving_an_input_is_rejected() {
        let mut d = Diagram::new();
        let a = d.add("a", Pass).unwrap();
        let b = d.add("b", Pass).unwrap();
        let c = d.add("c", Pass).unwrap();
        d.connect((a, 0), (c, 0)).unwrap();
        assert!(matches!(d.connect((b, 0), (c, 0)), Err(GraphError::InputTaken { .. })));
    }

    #[test]
    fn topo_order_respects_dataflow() {
        let mut d = Diagram::new();
        let c = d.add("c", Pass).unwrap();
        let b = d.add("b", Pass).unwrap();
        let a = d.add("a", Pass).unwrap();
        d.connect((a, 0), (b, 0)).unwrap();
        d.connect((b, 0), (c, 0)).unwrap();
        let order = d.sorted_order().unwrap();
        let pos = |id: BlockId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn algebraic_loop_is_detected_and_named() {
        let mut d = Diagram::new();
        let a = d.add("a", Pass).unwrap();
        let b = d.add("b", Pass).unwrap();
        d.connect((a, 0), (b, 0)).unwrap();
        d.connect((b, 0), (a, 0)).unwrap();
        match d.sorted_order() {
            Err(GraphError::AlgebraicLoop { blocks }) => {
                assert!(blocks.contains(&"a".to_string()));
                assert!(blocks.contains(&"b".to_string()));
            }
            other => panic!("expected algebraic loop, got {other:?}"),
        }
    }

    #[test]
    fn delay_breaks_the_loop() {
        let mut d = Diagram::new();
        let a = d.add("a", Pass).unwrap();
        let z = d.add("z", Delay).unwrap();
        d.connect((a, 0), (z, 0)).unwrap();
        d.connect((z, 0), (a, 0)).unwrap();
        assert!(d.sorted_order().is_ok());
    }

    struct Emitter;
    impl Block for Emitter {
        fn type_name(&self) -> &'static str {
            "Emitter"
        }
        fn ports(&self) -> PortCount {
            PortCount::with_events(0, 1, 1)
        }
        fn output(&mut self, _ctx: &mut BlockCtx) {}
    }

    struct Trig;
    impl Block for Trig {
        fn type_name(&self) -> &'static str {
            "Trig"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(0, 1)
        }
        fn sample(&self) -> SampleTime {
            SampleTime::Triggered
        }
        fn output(&mut self, _ctx: &mut BlockCtx) {}
    }

    #[test]
    fn event_target_of_reports_the_wiring() {
        let mut d = Diagram::new();
        let e = d.add("e", Emitter).unwrap();
        let t = d.add("t", Trig).unwrap();
        assert_eq!(d.event_target_of(e, 0), None);
        d.connect_event(e, 0, t).unwrap();
        assert_eq!(d.event_target_of(e, 0), Some(t));
    }

    #[test]
    fn fingerprints_of_identically_built_diagrams_are_equal() {
        let build = || {
            let mut d = Diagram::new();
            let a = d.add("a", Pass).unwrap();
            let z = d.add("z", Delay).unwrap();
            d.connect((a, 0), (z, 0)).unwrap();
            d
        };
        assert_eq!(build().fingerprint(), build().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_wiring() {
        let mut d1 = Diagram::new();
        let a = d1.add("a", Pass).unwrap();
        let z = d1.add("z", Delay).unwrap();
        d1.connect((a, 0), (z, 0)).unwrap();
        let mut d2 = Diagram::new();
        d2.add("a", Pass).unwrap();
        d2.add("z", Delay).unwrap();
        assert_ne!(d1.fingerprint(), d2.fingerprint());
    }

    #[test]
    fn find_and_name_round_trip() {
        let mut d = Diagram::new();
        let a = d.add("alpha", Pass).unwrap();
        assert_eq!(d.find("alpha"), Some(a));
        assert_eq!(d.name(a), "alpha");
        assert_eq!(d.find("nope"), None);
    }
}
