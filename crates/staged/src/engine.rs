//! The staged engine: operators as services that drain column packets.
//!
//! A [`Packet`] holds at most `batch` rows as one `Vec<i64>` per column. A
//! source fills a packet and pushes it through the plan's operator chain;
//! each operator works through the whole packet in one tight loop over
//! columns before the next one sees it, so a virtual call, and an operator's
//! code and state, are paid per packet instead of per row, and every buffer
//! is owned by its operator and reused: a query allocates per operator and
//! per result row, never per input row. `Filter` compacts its input in place,
//! `Project` copies columns, the hash probe gathers matches column-wise;
//! `Aggregate`, `Sort` and the join build are the blocking operators and emit
//! on `finish`. Rows become [`Row`]s only in the final result.
//!
//! A stored table is decoded a heap page at a time, straight from the page
//! bytes into the outgoing packet. The `Filter`s directly above a scan are
//! the scan's own (`filtered_scan`), held as data: their [`Predicate`]s are
//! the storage layer's filter type, and go to `Table::scan_page_into` as
//! they stand. That kernel is compiled once, in `esdb-storage`, and not per
//! caller: per page it checks the whole slot directory in one pass (every
//! live tuple's extent and width) and lists the live tuples; narrows them by
//! each filter in turn; then gathers, one column at a time, only the columns
//! something above reads (`needs` in [`compile`]). When a page overflows the
//! packet, only the rows past `batch` are copied, into the next one. The
//! page is pinned and latched inside `scan_page_into` and nowhere else.
//! Under the latch run the directory check, the pushed comparisons and the
//! column copies, which neither block, nor allocate per row, nor emit; **no
//! operator runs under a page latch or pin**, so an OLTP writer never waits
//! for an analytics operator.
//!
//! Two drivers run the same operators over the same packets:
//!
//! * [`execute_staged`] — one thread: a packet goes down the whole chain
//!   before the source fills the next, which isolates the locality and
//!   dispatch-amortization benefit of staging.
//! * [`execute_staged_parallel`] — one worker thread per operator, connected
//!   by bounded packet queues: the service-oriented deployment that also
//!   exploits pipeline parallelism across cores.

use crate::plan::{index_scan_rows, AggFunc, PlanNode, Row};
use esdb_storage::{Predicate, Table};
use esdb_sync::IntMap;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// Default packet size (rows per batch).
pub const DEFAULT_BATCH: usize = 256;

/// `len` rows, column-wise. A scan leaves a column nothing downstream reads
/// empty; every other column holds exactly `len` values.
#[derive(Default)]
struct Packet {
    cols: Vec<Vec<i64>>,
    len: usize,
}

impl Packet {
    /// Empties the packet and gives it `arity` columns, keeping its buffers.
    fn reset(&mut self, arity: usize) {
        self.cols.resize_with(arity, Vec::new);
        self.cols.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }

    /// Appends the `n` rows of `from` that start at row `at`.
    fn append(&mut self, from: &Packet, at: usize, n: usize) {
        self.cols.resize_with(from.cols.len(), Vec::new);
        for (to, from) in self.cols.iter_mut().zip(&from.cols).filter(|(_, from)| !from.is_empty()) {
            to.extend_from_slice(&from[at..at + n]);
        }
        self.len += n;
    }

    /// Keeps the first `n` rows.
    fn truncate(&mut self, n: usize) {
        self.cols.iter_mut().for_each(|col| col.truncate(n));
        self.len = n;
    }

    /// Fills the columns from `at` on with `rows` of `from`.
    fn gather(&mut self, at: usize, from: &[Vec<i64>], rows: impl ExactSizeIterator<Item = usize> + Clone) {
        for (to, from) in self.cols[at..].iter_mut().zip(from) {
            to.extend(rows.clone().map(|r| from[r]));
        }
        self.len = rows.len();
    }

    fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(|r| self.cols.iter().map(|col| col[r]).collect())
    }
}

/// Where an operator or a source hands a finished packet on. The receiver may
/// change the packet or take its buffers: `reset` it before refilling.
type Emit<'a> = &'a mut dyn FnMut(&mut Packet);

enum Source {
    /// A stored table, the fields of `[key, col0, ..]` to decode, and the
    /// conjunction a row must pass to be decoded at all.
    Scan { table: Arc<Table>, fields: Vec<usize>, filters: Vec<Predicate> },
    /// Literal rows: `Values`, an index scan's fetch, a blocking operator's output.
    Rows(Arc<Vec<Row>>),
}

impl Source {
    /// Emits everything, `batch` rows at a time.
    fn run(self, batch: usize, emit: Emit) {
        let mut out = Packet::default();
        match self {
            Source::Scan { table, fields, filters } => {
                let arity = table.schema().arity + 1;
                let (mut cursor, mut tail) = (table.scan_cursor(), Packet::default());
                out.reset(arity);
                while let Some(rows) = table.scan_page_into(&mut cursor, &fields, &filters, &mut out.cols).expect("scan") {
                    // The page is unpinned and unlatched again: operators may
                    // run. Only the rows past a full packet are copied.
                    out.len += rows;
                    while out.len >= batch {
                        tail.reset(arity);
                        tail.append(&out, batch, out.len - batch);
                        out.truncate(batch);
                        emit(&mut out);
                        std::mem::swap(&mut out, &mut tail);
                    }
                }
                if out.len > 0 {
                    emit(&mut out);
                }
            }
            Source::Rows(rows) => {
                let arity = rows.first().map_or(0, Vec::len);
                for chunk in rows.chunks(batch) {
                    out.reset(arity);
                    for row in chunk {
                        assert_eq!(row.len(), arity, "literal rows share one arity");
                        out.cols.iter_mut().zip(row).for_each(|(col, &v)| col.push(v));
                    }
                    out.len = chunk.len();
                    emit(&mut out);
                }
            }
        }
    }
}

/// A packet-processing operator service.
trait Operator: Send {
    /// Consumes one input packet, emitting any output packets it completes.
    fn push(&mut self, input: &mut Packet, emit: Emit);
    /// Input exhausted: emit what a blocking operator buffered.
    fn finish(&mut self, _emit: Emit) {}
}

/// A filter over anything but a stored table's scan, which tests its
/// filters as it decodes (see [`filtered_scan`]).
struct Filter {
    predicate: Predicate,
    keep: Vec<usize>,
}

impl Operator for Filter {
    fn push(&mut self, input: &mut Packet, emit: Emit) {
        let predicate = self.predicate;
        let tested = input.cols[predicate.field].iter().enumerate();
        self.keep.clear();
        self.keep.extend(tested.filter(|(_, &v)| predicate.holds(v)).map(|(r, _)| r));
        for col in input.cols.iter_mut().filter(|col| !col.is_empty()) {
            for (to, &from) in self.keep.iter().enumerate() {
                col[to] = col[from];
            }
            col.truncate(self.keep.len());
        }
        input.len = self.keep.len();
        if input.len > 0 {
            emit(input);
        }
    }
}

struct Project {
    cols: Vec<usize>,
    out: Packet,
}

impl Operator for Project {
    fn push(&mut self, input: &mut Packet, emit: Emit) {
        self.out.reset(self.cols.len());
        for (to, &from) in self.out.cols.iter_mut().zip(&self.cols) {
            to.extend_from_slice(&input.cols[from]);
        }
        self.out.len = input.len;
        emit(&mut self.out);
    }
}

/// Hash-join probe over a build side held column-wise: `head[key]` is the
/// first build row with that key, `next[row]` the next one after `row`.
struct Probe {
    built: Packet,
    head: IntMap<i64, usize>,
    next: Vec<Option<usize>>,
    right_col: usize,
    batch: usize,
    /// Matched (build row, probe row) pairs not yet emitted.
    pairs: Vec<(usize, usize)>,
    out: Packet,
}

impl Probe {
    /// The build service: runs the left pipeline to completion.
    fn build(left: &PlanNode, left_col: usize, right_col: usize, batch: usize) -> Probe {
        let mut built = Packet::default();
        run_inline(compile(left, None, batch), batch, &mut |p| built.append(p, 0, p.len));
        let (mut head, mut next) = (IntMap::default(), vec![None; built.len]);
        for row in (0..built.len).rev() {
            next[row] = head.insert(built.cols[left_col][row], row);
        }
        Probe { built, head, next, right_col, batch, pairs: Vec::new(), out: Packet::default() }
    }

    fn flush(&mut self, input: &Packet, emit: Emit) {
        let left_arity = self.built.cols.len();
        self.out.reset(left_arity + input.cols.len());
        self.out.gather(0, &self.built.cols, self.pairs.iter().map(|pair| pair.0));
        self.out.gather(left_arity, &input.cols, self.pairs.iter().map(|pair| pair.1));
        self.pairs.clear();
        emit(&mut self.out);
    }
}

impl Operator for Probe {
    fn push(&mut self, input: &mut Packet, emit: Emit) {
        for row in 0..input.len {
            let mut matched = self.head.get(&input.cols[self.right_col][row]).copied();
            while let Some(left) = matched {
                self.pairs.push((left, row));
                if self.pairs.len() == self.batch {
                    self.flush(input, emit);
                }
                matched = self.next[left];
            }
        }
        if !self.pairs.is_empty() {
            self.flush(input, emit);
        }
    }
}

struct Aggregate {
    group_col: Option<usize>,
    agg_col: usize,
    func: AggFunc,
    batch: usize,
    groups: IntMap<i64, i64>,
    single: Option<i64>,
}

impl Operator for Aggregate {
    fn push(&mut self, input: &mut Packet, _emit: Emit) {
        let (func, values) = (self.func, &input.cols[self.agg_col]);
        match self.group_col {
            Some(g) => {
                for (&group, &v) in input.cols[g].iter().zip(values) {
                    let acc = self.groups.entry(group);
                    acc.and_modify(|acc| *acc = func.fold(Some(*acc), v)).or_insert_with(|| func.fold(None, v));
                }
            }
            None => self.single = func.fold_slice(self.single, values),
        }
    }

    fn finish(&mut self, emit: Emit) {
        // Whichever accumulator the plan used is the one that holds anything.
        let groups = self.groups.drain().map(|(g, v)| vec![g, v]);
        let mut rows: Vec<Row> = groups.chain(self.single.take().map(|v| vec![v])).collect();
        rows.sort(); // deterministic output order
        Source::Rows(Arc::new(rows)).run(self.batch, emit);
    }
}

struct Sort {
    col: usize,
    batch: usize,
    buffer: Packet,
    out: Packet,
}

impl Operator for Sort {
    fn push(&mut self, input: &mut Packet, _emit: Emit) {
        self.buffer.append(input, 0, input.len);
    }

    fn finish(&mut self, emit: Emit) {
        let cols = &self.buffer.cols;
        let row = |r: usize| cols.iter().map(move |col| col[r]);
        let mut order: Vec<usize> = (0..self.buffer.len).collect();
        order.sort_by(|&a, &b| cols[self.col][a].cmp(&cols[self.col][b]).then_with(|| row(a).cmp(row(b))));
        for chunk in order.chunks(self.batch) {
            self.out.reset(cols.len());
            self.out.gather(0, cols, chunk.iter().copied());
            emit(&mut self.out);
        }
    }
}

/// A compiled plan: a source and the operator chain above it, first to last.
type Pipeline = (Source, Vec<Box<dyn Operator>>);

/// A `Scan` under a chain of zero or more `Filter`s: the table, and the
/// filters' predicates, lowest first. `None` for any other plan.
fn filtered_scan(plan: &PlanNode) -> Option<(&Arc<Table>, Vec<Predicate>)> {
    match plan {
        PlanNode::Scan(table) => Some((table, Vec::new())),
        PlanNode::Filter { input, col, op, value } => {
            let (table, mut filters) = filtered_scan(input)?;
            filters.push(Predicate { field: *col, op: *op, value: *value });
            Some((table, filters))
        }
        _ => None,
    }
}

/// Compiles `plan`, passing down which of its output columns anything above
/// reads (`needs`; `None` = all of them) so that a scan decodes only those.
/// The filters right above a scan are the scan's: it tests them on the page
/// bytes, so a column only they read is never decoded. Build sides of joins
/// run eagerly, mirroring StagedDB's build service.
fn compile(plan: &PlanNode, needs: Option<Vec<usize>>, batch: usize) -> Pipeline {
    let source = |source| (source, Vec::new());
    if let Some((table, filters)) = filtered_scan(plan) {
        let read = |f: &usize| needs.as_ref().is_none_or(|needs| needs.contains(f));
        let fields = (0..=table.schema().arity).filter(read).collect();
        return source(Source::Scan { table: table.clone(), fields, filters });
    }
    let (input, needs, op): (_, _, Box<dyn Operator>) = match plan {
        PlanNode::Scan(_) => unreachable!("a scan is a filtered scan with no filters"),
        PlanNode::IndexScan { table, index, lo, hi } => {
            return source(Source::Rows(Arc::new(index_scan_rows(table, *index, *lo, *hi))));
        }
        PlanNode::Values(rows) => return source(Source::Rows(rows.clone())),
        PlanNode::Filter { input, col, op, value } => {
            let filter = Filter { predicate: Predicate { field: *col, op: *op, value: *value }, keep: Vec::new() };
            (input, needs.map(|needs| [needs, vec![*col]].concat()), Box::new(filter))
        }
        PlanNode::Project { input, cols } => {
            let read = match needs {
                Some(needs) => needs.iter().filter_map(|&c| cols.get(c).copied()).collect(),
                None => cols.clone(),
            };
            (input, Some(read), Box::new(Project { cols: cols.clone(), out: Packet::default() }))
        }
        PlanNode::HashJoin { left, right, left_col, right_col } => {
            (right, None, Box::new(Probe::build(left, *left_col, *right_col, batch)))
        }
        PlanNode::Aggregate { input, group_col, agg_col, func } => {
            let read = group_col.iter().chain([agg_col]).copied().collect();
            let (group_col, agg_col, func) = (*group_col, *agg_col, *func);
            (input, Some(read), Box::new(Aggregate { group_col, agg_col, func, batch, groups: IntMap::default(), single: None }))
        }
        PlanNode::Sort { input, col } => {
            (input, None, Box::new(Sort { col: *col, batch, buffer: Packet::default(), out: Packet::default() }))
        }
    };
    let (source, mut ops) = compile(input, needs, batch);
    ops.push(op);
    (source, ops)
}

/// Sends `packet` down `ops`; what comes out of the last one goes to `sink`.
fn push(ops: &mut [Box<dyn Operator>], packet: &mut Packet, sink: Emit) {
    match ops.split_first_mut() {
        Some((op, rest)) => op.push(packet, &mut |p| push(rest, p, sink)),
        None => sink(packet),
    }
}

/// Tells `ops` their input is exhausted, first to last.
fn finish(ops: &mut [Box<dyn Operator>], sink: Emit) {
    if let Some((op, rest)) = ops.split_first_mut() {
        op.finish(&mut |p| push(rest, p, sink));
        finish(rest, sink);
    }
}

/// The inline driver: each packet goes down the whole chain on this thread.
fn run_inline((source, mut ops): Pipeline, batch: usize, sink: Emit) {
    source.run(batch, &mut |p| push(&mut ops, p, sink));
    finish(&mut ops, sink);
}

/// Executes `plan` with the staged engine, packet-at-a-time on one thread.
pub fn execute_staged(plan: &PlanNode, batch: usize) -> Vec<Row> {
    let (batch, mut result) = (batch.max(1), Vec::new());
    run_inline(compile(plan, None, batch), batch, &mut |p| result.extend(p.rows()));
    result
}

/// Executes `plan` with one worker thread per operator, connected by bounded
/// packet queues (the service deployment of StagedDB).
pub fn execute_staged_parallel(plan: &PlanNode, batch: usize) -> Vec<Row> {
    let batch = batch.max(1);
    let (source, ops) = compile(plan, None, batch);
    // A worker whose consumer died has nobody to send to; the scope re-raises
    // the consumer's panic once every worker has returned.
    std::thread::scope(|scope| {
        let (tx, mut rx) = sync_channel::<Packet>(4);
        scope.spawn(move || source.run(batch, &mut |p| drop(tx.send(std::mem::take(p)))));
        for mut op in ops {
            let (tx, next_rx) = sync_channel(4);
            let my_rx = std::mem::replace(&mut rx, next_rx);
            scope.spawn(move || {
                let emit: Emit = &mut |p| drop(tx.send(std::mem::take(p)));
                for mut packet in my_rx {
                    op.push(&mut packet, emit);
                }
                op.finish(emit);
            });
        }
        let mut result = Vec::new();
        for packet in rx {
            result.extend(packet.rows());
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CmpOp;
    use crate::volcano::execute_volcano;

    fn sample_plan() -> PlanNode {
        let fact = PlanNode::values(
            (0..500)
                .map(|i| vec![i % 20, i, (i * 7) % 100])
                .collect(),
        );
        let dim = PlanNode::values((0..20).map(|g| vec![g, g * 1000]).collect());
        dim.hash_join(fact, 0, 0)
            .filter(3, CmpOp::Lt, 400)
            .aggregate(Some(0), 4, AggFunc::Sum)
            .sort(0)
    }

    #[test]
    fn staged_matches_volcano_on_sample() {
        let plan = sample_plan();
        let expected = execute_volcano(&plan);
        assert!(!expected.is_empty());
        for batch in [1, 7, 64, 1024] {
            assert_eq!(execute_staged(&plan, batch), expected, "batch={batch}");
        }
    }

    #[test]
    fn parallel_matches_volcano_on_sample() {
        let plan = sample_plan();
        let mut expected = execute_volcano(&plan);
        for batch in [1, 32, 512] {
            let mut got = execute_staged_parallel(&plan, batch);
            // Parallel pipeline preserves order for order-producing plans
            // (sort is the last, blocking stage), but normalize anyway.
            got.sort();
            expected.sort();
            assert_eq!(got, expected, "batch={batch}");
        }
    }

    #[test]
    fn batch_one_equals_row_at_a_time() {
        let data = PlanNode::values((0..50).map(|i| vec![i]).collect());
        let plan = data.filter(0, CmpOp::Ge, 25);
        assert_eq!(execute_staged(&plan, 1).len(), 25);
    }

    #[test]
    fn empty_input_flows_through() {
        let plan = PlanNode::values(vec![])
            .filter(0, CmpOp::Gt, 0)
            .aggregate(None, 0, AggFunc::Count);
        assert!(execute_staged(&plan, 64).is_empty());
        assert!(execute_staged_parallel(&plan, 64).is_empty());
    }

    #[test]
    fn blocking_sort_stage_emits_on_finish() {
        let plan = PlanNode::values(vec![vec![9], vec![1], vec![5]]).sort(0);
        assert_eq!(
            execute_staged(&plan, 2),
            vec![vec![1], vec![5], vec![9]]
        );
        assert_eq!(
            execute_staged_parallel(&plan, 2),
            vec![vec![1], vec![5], vec![9]]
        );
    }

    fn stored(rows: u64) -> Arc<Table> {
        use esdb_storage::{buffer::BufferPool, disk::InMemoryDisk};
        let pool = Arc::new(BufferPool::new(64, Arc::new(InMemoryDisk::new())));
        let table = Arc::new(Table::create(0, "t", 3, pool));
        for k in 0..rows {
            table.insert(k, &[(k % 10) as i64, k as i64 * 2, -(k as i64)]).unwrap();
        }
        table
    }

    #[test]
    fn a_scan_decodes_only_the_columns_the_plan_reads() {
        let scan = || PlanNode::scan(stored(1));
        let decoded = |plan: PlanNode| match compile(&plan, None, DEFAULT_BATCH).0 {
            Source::Scan { fields, .. } => fields,
            Source::Rows(_) => panic!("a stored-table plan scans"),
        };
        assert_eq!(decoded(scan()), [0, 1, 2, 3]);
        assert_eq!(decoded(scan().aggregate(None, 2, AggFunc::Sum)), [2]);
        assert_eq!(decoded(scan().filter(1, CmpOp::Lt, 10).aggregate(Some(1), 2, AggFunc::Sum).sort(0)), [1, 2]);
        // A pushed filter tests its column on the page; nothing decodes it.
        assert_eq!(decoded(scan().filter(1, CmpOp::Eq, 7).project(vec![0, 2]).sort(0)), [0, 2]);
        assert_eq!(decoded(scan().filter(1, CmpOp::Ge, 2).filter(3, CmpOp::Lt, 0).aggregate(None, 2, AggFunc::Count)), [2]);
        assert_eq!(decoded(scan().project(vec![3, 3, 0]).aggregate(Some(0), 1, AggFunc::Max)), [3]);
        // A filter above a projection is not pushed, so its column is read.
        assert_eq!(decoded(scan().project(vec![1, 2]).filter(0, CmpOp::Eq, 7).aggregate(None, 1, AggFunc::Sum)), [1, 2]);
        // A sort orders by the whole row and a join emits it: both read everything.
        assert_eq!(decoded(scan().sort(1).project(vec![2])), [0, 1, 2, 3]);
        assert_eq!(decoded(PlanNode::values(vec![]).hash_join(scan(), 0, 1).project(vec![0])), [0, 1, 2, 3]);
        // Which filters the scan tests itself, and how many operators remain.
        let pushed = |plan: PlanNode| match compile(&plan, None, DEFAULT_BATCH) {
            (Source::Scan { filters, .. }, ops) => (filters.iter().map(|p| (p.field, p.op, p.value)).collect::<Vec<_>>(), ops.len()),
            (Source::Rows(_), _) => panic!("a stored-table plan scans"),
        };
        assert_eq!(pushed(scan()), (vec![], 0));
        let one = scan().filter(1, CmpOp::Eq, 7).project(vec![0, 2]);
        assert_eq!(pushed(one), (vec![(1, CmpOp::Eq, 7)], 1), "only the projection runs as an operator");
        let stacked = scan().filter(1, CmpOp::Ge, 2).filter(3, CmpOp::Lt, 0);
        assert_eq!(pushed(stacked), (vec![(1, CmpOp::Ge, 2), (3, CmpOp::Lt, 0)], 0), "lowest first, both pushed");
        let above_project = scan().project(vec![1, 2]).filter(0, CmpOp::Eq, 7);
        assert_eq!(pushed(above_project), (vec![], 2));
        let above_sort = scan().filter(2, CmpOp::Gt, 4).sort(1).filter(0, CmpOp::Gt, 3);
        assert_eq!(pushed(above_sort), (vec![(2, CmpOp::Gt, 4)], 2), "the filter below the sort is pushed, the one above is not");
    }

    /// The latch rule. The sink below writes to a row of the page the packet
    /// was just decoded from; the write latch it takes would wait forever for
    /// the scan's own read latch if packets were pushed from under it.
    #[test]
    fn no_packet_is_pushed_under_a_page_latch() {
        let table = stored(500);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut seen = 0;
            let pipeline = compile(&PlanNode::scan(table.clone()).filter(0, CmpOp::Ge, 0), None, 16);
            run_inline(pipeline, 16, &mut |packet| {
                let last = packet.cols[0][packet.len - 1] as u64;
                table.update(last, &[0, 0, 0]).expect("update under the scan");
                seen += packet.len;
            });
            done_tx.send(seen).unwrap();
        });
        let seen = done_rx.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(seen, Ok(500), "the sink deadlocked against the scan's page latch");
    }
}
