//! Gauss–Jordan elimination over guarded xor layers.
//!
//! The watched-variable engine in [`crate::xor_engine`] propagates each xor
//! constraint in isolation: it discovers an implied literal or a conflict
//! only when a *single* row has at most one unassigned variable left. Random
//! hash layers, however, routinely entail units and conflicts through
//! *combinations* of rows (`x⊕y = 0` and `x⊕y⊕z = 1` imply `z` long before
//! either row is unit on its own). CryptoMiniSAT — the solver behind the
//! experiments of the UniGen paper (DAC 2014) and its CAV 2013 predecessor —
//! recovers those through Gaussian elimination; this module brings the same
//! capability to the guarded hash layers here.
//!
//! # Data structure
//!
//! One dense bit matrix per activation guard, built from the guard's xor
//! rows when the layer is *sealed* (first solve after the rows were added).
//! Columns are the variables occurring in the layer — for a hash layer that
//! is a subset of the sampling set — packed into `u64` words; each row also
//! carries its parity bit. The matrix is kept in **reduced row-echelon
//! form**: every row owns a *basic* column that occurs in no other row.
//!
//! Next to the rows, each matrix keeps two column bitsets mirroring the
//! solver's assignment: `assigned` (the column's variable has a value) and
//! `values` (that value is `true`). With them every per-row question is a
//! handful of word operations: the unassigned columns are
//! `bits & !assigned` (`popcount` counts them, `trailing_zeros` picks the
//! re-pivot target), the parity of the assigned part is the parity of
//! `popcount(bits & values)`, and the falsified literals of a reason are the
//! set bits of `bits & assigned`.
//!
//! # Propagation (the "simplex way")
//!
//! Following Han & Jiang (CAV 2012) and CryptoMiniSAT's `EGaussian`, the
//! matrix reacts to variable assignments:
//!
//! * when a row's **basic** variable is assigned, the row re-pivots onto one
//!   of its unassigned columns and that column is eliminated from every
//!   other row (actual row xors — this is where cross-row reasoning
//!   happens dynamically);
//! * every row with at most one unassigned variable then yields an implied
//!   literal, a conflict, or — when the guard is still unassigned — an
//!   implication of the guard itself (the clause `g ∨ row` is unit on `g`).
//!
//! Because each not-fully-assigned row keeps a *distinct unassigned* basic
//! variable, any unit or conflicting linear combination of two or more rows
//! would contain at least two unassigned variables — so checking rows
//! individually is complete: the matrix propagates everything Gauss–Jordan
//! elimination under the current assignment could derive.
//!
//! # Backtracking: the assignment mirror is the one undo hook
//!
//! Row operations are equivalence transformations of the linear system and
//! are valid under *any* assignment, so the rows are never rolled back.
//! The basic-column bookkeeping is conservative: a basic variable that was
//! assigned (and could not be replaced because its row was fully assigned)
//! becomes a valid pivot again the moment backtracking unassigns it.
//!
//! The `assigned`/`values` mirror is the only state that must follow the
//! trail both ways. The solver drives it through
//! [`GaussEngine::set_value`] from exactly the two places that write its
//! assignment — `enqueue` sets a column, `backtrack_to` clears it — so the
//! mirror equals the solver's assignment at every scan (debug builds assert
//! this at each one).
//!
//! Implication *reasons* are captured eagerly, at propagation time, because
//! later row operations may rewrite the row that justified an earlier
//! implication. They are recycled rather than reallocated: a scan writes
//! reason literals into one arena that is reset per propagated literal, and
//! the solver copies the reason of each implication it enqueues into a
//! per-variable buffer that keeps its capacity. A stored reason stays valid
//! until the variable leaves the trail, after which the next implication of
//! that variable overwrites it.

use std::collections::HashSet;
use std::ops::Range;

use unigen_cnf::{Lit, Var, XorClause};

/// A guard's key: the index of its activation variable.
pub(crate) type GuardKey = u32;

/// Outcome of compiling a layer's rows into a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildOutcome {
    /// The matrix is installed and may propagate.
    Built {
        /// Number of (non-redundant) rows this call added to the matrix.
        added: usize,
        /// `true` if this call created the matrix (as opposed to merging
        /// more rows into an existing one) — the stats count each matrix
        /// once.
        fresh: bool,
    },
    /// The rows are jointly unsatisfiable (some combination reduces to
    /// `0 = 1`): the caller must assert the guard's disable literal — the
    /// guarded layer contributes exactly the unit clause `g`.
    LayerUnsat,
}

/// One propagation event discovered by a matrix scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GaussResult {
    /// Some row forces `lit`; `reason` spans the antecedent literals (all
    /// currently false) in the engine's per-scan result arena. `lit` may be
    /// the guard's disable literal when a row is violated while the guard
    /// is still unassigned. The solver stores the reason (via
    /// [`GaussEngine::store_reason`]) only for the implication it actually
    /// enqueues, so a later event can never clobber the justification of an
    /// assignment already on the trail; an implication of an already-false
    /// literal becomes a conflict via [`GaussEngine::set_conflict`].
    Implied {
        /// The implied literal.
        lit: Lit,
        /// Where the antecedent literals justifying `lit` sit in the arena.
        reason: Range<usize>,
    },
    /// A row of an *active* guard is violated by the current assignment;
    /// the conflict clause was stored and is retrieved with
    /// [`GaussEngine::conflict_lits`].
    Conflict,
}

/// A row the matrix derived as a GF(2) sum of two or more original xor
/// rows, recorded for proof logging: implication/conflict *reasons* come
/// from the **reduced** rows, which are linear combinations of the logged
/// originals and therefore not RUP-checkable over their expansions alone.
/// Each derive names the exact original row ids whose sum it is, so the
/// checker can verify the combination symbolically and install the derived
/// row's expansion before any clause that depends on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowDerive {
    /// The guard variable owning the matrix.
    pub(crate) guard: Var,
    /// Variables of the derived row (empty for the `0 = 1` layer-unsat
    /// combination).
    pub(crate) vars: Vec<Var>,
    /// Parity of the derived row.
    pub(crate) rhs: bool,
    /// Proof-stream ids of the original rows summed.
    pub(crate) from: Vec<u64>,
}

/// Iterates the set bits of a bitset, in increasing order.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(wi, word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(wi * 64 + bit)
        })
    })
}

/// One row: column bitset plus parity, owning one basic column.
#[derive(Debug, Clone)]
struct Row {
    bits: Vec<u64>,
    rhs: bool,
    /// Column index of this row's basic variable.
    basic: usize,
    /// Provenance bitset over the matrix's inserted originals: bit `i` set
    /// means original `origin_ids[i]` participates in the GF(2) sum that
    /// produced this row. Maintained by every row operation alongside
    /// `bits`/`rhs`, so combo ↔ row content stays 1:1. Empty when proof
    /// tracking is off.
    combo: Vec<u64>,
}

impl Row {
    fn get(&self, col: usize) -> bool {
        self.bits[col / 64] >> (col % 64) & 1 != 0
    }

    fn xor_in(&mut self, other: &Row) {
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w ^= o;
        }
        self.rhs ^= other.rhs;
        for (w, o) in self.combo.iter_mut().zip(&other.combo) {
            *w ^= o;
        }
    }

    fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates the set columns of the row.
    fn cols(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.bits.iter().copied())
    }
}

/// Per-guard dense matrix in reduced row-echelon form.
#[derive(Debug, Clone)]
struct GaussMatrix {
    /// The guard's disable literal `g`; the layer is active while `g` is
    /// false.
    guard: Lit,
    /// Column index → variable.
    cols: Vec<Var>,
    words: usize,
    rows: Vec<Row>,
    /// Column index → the row whose basic column it is.
    basic_row: Vec<Option<u32>>,
    /// Column bitset: the column's variable is assigned.
    assigned: Vec<u64>,
    /// Column bitset: the column's variable is assigned `true` (never set
    /// for an unassigned column).
    values: Vec<u64>,
    /// Proof-stream id of each original row inserted into this matrix, in
    /// insertion order (combo bit `i` ↔ `origin_ids[i]`). Empty when proof
    /// tracking is off.
    origin_ids: Vec<u64>,
    /// Width of every row's `combo` bitset, in words.
    combo_words: usize,
    /// Combos already logged as derives — a derived row may fire many times
    /// across solves but its derivation only needs logging once.
    logged: HashSet<Vec<u64>>,
}

/// What a row looks like under the current partial assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowState {
    /// Unassigned columns of the row, saturated at 2 (the scan only tells
    /// 0, 1 and "more" apart).
    unassigned: u32,
    /// The unassigned column of the row (meaningful when `unassigned == 1`).
    unassigned_col: usize,
    /// Parity of the assigned variables' values.
    parity: bool,
}

impl GaussMatrix {
    fn new(guard: Lit) -> Self {
        GaussMatrix {
            guard,
            cols: Vec::new(),
            words: 0,
            rows: Vec::new(),
            basic_row: Vec::new(),
            assigned: Vec::new(),
            values: Vec::new(),
            origin_ids: Vec::new(),
            combo_words: 0,
            logged: HashSet::new(),
        }
    }

    /// Appends `var` as a new column whose mirror starts at `value`,
    /// growing every row's bitset as needed. Returns the column index.
    fn push_col(&mut self, var: Var, value: Option<bool>) -> usize {
        let c = self.cols.len();
        self.cols.push(var);
        self.basic_row.push(None);
        let words = c / 64 + 1;
        if words > self.words {
            self.words = words;
            for row in &mut self.rows {
                row.bits.resize(words, 0);
            }
            self.assigned.resize(words, 0);
            self.values.resize(words, 0);
        }
        self.set_value(c, value);
        c
    }

    /// Mirrors the assignment of column `col`'s variable.
    fn set_value(&mut self, col: usize, value: Option<bool>) {
        let (w, bit) = (col / 64, 1u64 << (col % 64));
        match value {
            Some(v) => {
                self.assigned[w] |= bit;
                if v {
                    self.values[w] |= bit;
                } else {
                    self.values[w] &= !bit;
                }
            }
            None => {
                self.assigned[w] &= !bit;
                self.values[w] &= !bit;
            }
        }
    }

    /// `true` if the column mirror equals `assign` on every column.
    fn mirrors(&self, assign: &[Option<bool>]) -> bool {
        self.cols.iter().enumerate().all(|(c, v)| {
            let (w, bit) = (c / 64, 1u64 << (c % 64));
            let assigned = self.assigned[w] & bit != 0;
            let value = self.values[w] & bit != 0;
            match assign[v.index()] {
                Some(v) => assigned && value == v,
                None => !assigned && !value,
            }
        })
    }

    /// The first (lowest) unassigned column of `row`.
    fn first_open_col(&self, row: &Row) -> Option<usize> {
        row.bits
            .iter()
            .zip(&self.assigned)
            .enumerate()
            .find_map(|(wi, (&bits, &assigned))| {
                let open = bits & !assigned;
                (open != 0).then(|| wi * 64 + open.trailing_zeros() as usize)
            })
    }

    /// Reduces a fresh xor row over the columns `cols` against the matrix
    /// and inserts it, keeping the reduced row-echelon invariant. Returns
    /// `Ok(false)` if the row was redundant, `Ok(true)` if it was inserted,
    /// and `Err(from)` if it reduced to `0 = 1` (the layer is
    /// unsatisfiable) — `from` names the proof ids of the original rows
    /// whose sum is the contradiction (empty when proof tracking is off).
    ///
    /// `origin` is the row's proof-stream id (0 = tracking off).
    /// `row_ops` counts the elimination xors performed.
    fn insert_row(
        &mut self,
        cols: &[usize],
        rhs: bool,
        origin: u64,
        row_ops: &mut u64,
    ) -> Result<bool, Vec<u64>> {
        let mut combo = Vec::new();
        if origin != 0 {
            self.origin_ids.push(origin);
            let words = self.origin_ids.len().div_ceil(64);
            if words > self.combo_words {
                self.combo_words = words;
                for row in &mut self.rows {
                    row.combo.resize(words, 0);
                }
            }
            combo = vec![0; self.combo_words];
            let bit = self.origin_ids.len() - 1;
            combo[bit / 64] |= 1 << (bit % 64);
        }
        let mut row = Row {
            bits: vec![0; self.words],
            rhs,
            basic: 0,
            combo,
        };
        for &c in cols {
            row.bits[c / 64] ^= 1 << (c % 64);
        }
        // Eliminate existing basic columns from the new row.
        for existing in &self.rows {
            if row.get(existing.basic) {
                row.xor_in(existing);
                *row_ops += 1;
            }
        }
        if row.is_zero() {
            return if row.rhs {
                Err(self.origins_of(&row.combo))
            } else {
                Ok(false)
            };
        }
        // Pick a basic column, preferring an unassigned variable so the
        // row starts out obeying the propagation invariant.
        let basic = self
            .first_open_col(&row)
            .or_else(|| row.cols().next())
            .expect("non-zero row has a column");
        row.basic = basic;
        // Jordan step: clear the new basic column from every other row.
        for existing in &mut self.rows {
            if existing.get(basic) {
                existing.xor_in(&row);
                *row_ops += 1;
            }
        }
        self.basic_row[basic] = Some(self.rows.len() as u32);
        self.rows.push(row);
        Ok(true)
    }

    /// Re-pivots the row whose basic column is `col` (whose variable was
    /// just assigned) onto its first unassigned column, eliminating that
    /// column from all other rows. Indices of rows modified by the
    /// elimination (the pivot row first) are appended to `modified`.
    fn repivot_on_assign(&mut self, col: usize, row_ops: &mut u64, modified: &mut Vec<usize>) {
        let Some(r) = self.basic_row[col] else {
            return;
        };
        let r = r as usize;
        let Some(new_basic) = self.first_open_col(&self.rows[r]) else {
            // Fully assigned row: it stays as-is and becomes a valid pivot
            // row again once backtracking unassigns its basic variable.
            return;
        };
        self.rows[r].basic = new_basic;
        self.basic_row[col] = None;
        self.basic_row[new_basic] = Some(r as u32);
        modified.push(r);
        let (before, rest) = self.rows.split_at_mut(r);
        let (pivot, after) = rest.split_first_mut().expect("the pivot row exists");
        let others = before.iter_mut().enumerate().chain(
            after
                .iter_mut()
                .enumerate()
                .map(|(j, row)| (r + 1 + j, row)),
        );
        for (i, row) in others {
            if row.get(new_basic) {
                row.xor_in(pivot);
                *row_ops += 1;
                modified.push(i);
            }
        }
    }

    fn state_of(&self, row: &Row) -> RowState {
        let mut state = RowState {
            unassigned: 0,
            unassigned_col: 0,
            parity: false,
        };
        let mut ones = 0u32;
        for (wi, ((&bits, &assigned), &values)) in row
            .bits
            .iter()
            .zip(&self.assigned)
            .zip(&self.values)
            .enumerate()
        {
            let open = bits & !assigned;
            if open != 0 {
                state.unassigned += open.count_ones();
                if state.unassigned > 1 {
                    state.unassigned = 2;
                    return state;
                }
                state.unassigned_col = wi * 64 + open.trailing_zeros() as usize;
            }
            ones += (bits & values).count_ones();
        }
        state.parity = ones & 1 != 0;
        state
    }

    /// The proof-stream ids named by a combo bitset, in insertion order.
    fn origins_of(&self, combo: &[u64]) -> Vec<u64> {
        set_bits(combo.iter().copied())
            .map(|bit| self.origin_ids[bit])
            .collect()
    }

    /// Appends the falsified literals of the row's assigned variables (the
    /// reason side of an implication or conflict derived from the row), in
    /// column order.
    fn falsified_lits(&self, row: &Row, out: &mut Vec<Lit>) {
        let words = row.bits.iter().zip(&self.assigned).map(|(&b, &a)| b & a);
        for c in set_bits(words) {
            let value = self.values[c / 64] >> (c % 64) & 1 != 0;
            out.push(self.cols[c].lit(!value));
        }
    }

    /// Records the derivation of row `index` when it is a combination of
    /// two or more originals not logged before.
    fn note_derive(&mut self, index: usize, derives: &mut Vec<RowDerive>) {
        let row = &self.rows[index];
        let popcount: u32 = row.combo.iter().map(|w| w.count_ones()).sum();
        if popcount > 1 && self.logged.insert(row.combo.clone()) {
            derives.push(RowDerive {
                guard: self.guard.var(),
                vars: row.cols().map(|c| self.cols[c]).collect(),
                rhs: row.rhs,
                from: self.origins_of(&row.combo),
            });
        }
    }
}

/// The per-guard Gauss–Jordan matrices plus the bookkeeping that connects
/// them to the solver: pending (not yet sealed) layers, variable→matrix
/// dispatch, eagerly stored implication reasons, and the last conflict.
#[derive(Debug, Clone, Default)]
pub(crate) struct GaussEngine {
    /// Rows added under a guard but not yet compiled (sealed at the next
    /// solve), paired with their proof-stream ids (0 = tracking off).
    /// Insertion-ordered so sealing is deterministic.
    pending: Vec<(GuardKey, Vec<(XorClause, u64)>)>,
    /// Installed matrices; `None` marks a free slot.
    matrices: Vec<Option<GaussMatrix>>,
    /// Number of installed matrices.
    live: usize,
    /// Guard variable index → slot of its matrix in `matrices`.
    slot_of: Vec<Option<u32>>,
    /// Variable index → `(slot, column)` of every matrix that has the
    /// variable as a column, in the order the matrices gained it.
    touching: Vec<Vec<(u32, u32)>>,
    /// Variable index → antecedent literals of its most recent implication.
    reasons: Vec<Vec<Lit>>,
    /// Conflict literals of the most recent conflict.
    conflict: Vec<Lit>,
    /// Reason literals of the results of the current scan; the ranges in
    /// [`GaussResult::Implied`] point here. A scan entry point called with
    /// an empty result list recycles the arena; one that appends to earlier
    /// results keeps their ranges valid.
    result_lits: Vec<Lit>,
    /// Reusable buffer of affected row indices (avoids an allocation per
    /// propagated literal on the hot path).
    affected_scratch: Vec<usize>,
    /// Number of row xors performed (build, insert and re-pivot combined).
    pub(crate) row_ops: u64,
    /// `true` when the solver has a proof sink installed: rows that fire
    /// implications or conflicts enqueue [`RowDerive`] provenance records.
    tracking: bool,
    /// Derives awaiting proof logging; drained by the solver before it
    /// writes any step that may depend on them.
    derives: Vec<RowDerive>,
}

impl GaussEngine {
    /// Queues a row for `guard`; it becomes part of the guard's matrix when
    /// the layer is sealed. `origin` is the row's proof-stream id (0 when
    /// proof tracking is off).
    pub(crate) fn push_pending(&mut self, guard: GuardKey, xor: XorClause, origin: u64) {
        match self.pending.iter_mut().find(|(g, _)| *g == guard) {
            Some((_, rows)) => rows.push((xor, origin)),
            None => self.pending.push((guard, vec![(xor, origin)])),
        }
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    pub(crate) fn take_pending(&mut self) -> Vec<(GuardKey, Vec<(XorClause, u64)>)> {
        std::mem::take(&mut self.pending)
    }

    /// Enables provenance tracking (proof sink installed on the solver).
    pub(crate) fn set_tracking(&mut self, on: bool) {
        self.tracking = on;
    }

    /// Drains the derives recorded since the last call.
    pub(crate) fn take_derives(&mut self) -> Vec<RowDerive> {
        std::mem::take(&mut self.derives)
    }

    /// `true` when derives await logging (fast path for the solver's
    /// logging helper).
    pub(crate) fn has_derives(&self) -> bool {
        !self.derives.is_empty()
    }

    /// Returns `true` if no matrix exists (fast path for propagation).
    pub(crate) fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// Number of matrices currently installed.
    #[cfg(test)]
    pub(crate) fn num_matrices(&self) -> usize {
        self.live
    }

    /// Mirrors an assignment change of `var` into every matrix that has it
    /// as a column: `Some(value)` when the solver assigns it, `None` when
    /// backtracking unassigns it. The solver calls this wherever its
    /// assignment changes, so the matrices' row states stay exact.
    pub(crate) fn set_value(&mut self, var: Var, value: Option<bool>) {
        let Some(list) = self.touching.get(var.index()) else {
            return;
        };
        for &(slot, col) in list {
            if let Some(matrix) = self.matrices[slot as usize].as_mut() {
                matrix.set_value(col as usize, value);
            }
        }
    }

    fn slot(&self, guard: GuardKey) -> Option<usize> {
        let slot = self.slot_of.get(guard as usize).copied().flatten()?;
        Some(slot as usize)
    }

    /// Compiles `rows` into a matrix for `guard` (merging into an existing
    /// matrix if the guard already has one — rows can arrive across several
    /// solve calls). `assign` is the solver's current assignment, which
    /// seeds the mirror of every new column.
    pub(crate) fn build(
        &mut self,
        guard: GuardKey,
        guard_lit: Lit,
        rows: &[(XorClause, u64)],
        assign: &[Option<bool>],
    ) -> BuildOutcome {
        let existing = self.slot(guard);
        let fresh = existing.is_none();
        let slot = existing.unwrap_or_else(|| {
            let slot = match self.matrices.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    self.matrices.push(None);
                    self.matrices.len() - 1
                }
            };
            self.matrices[slot] = Some(GaussMatrix::new(guard_lit));
            if self.slot_of.len() <= guard as usize {
                self.slot_of.resize(guard as usize + 1, None);
            }
            self.slot_of[guard as usize] = Some(slot as u32);
            self.live += 1;
            slot
        });
        let matrix = self.matrices[slot]
            .as_mut()
            .expect("the guard's slot holds its matrix");
        let rows_before = matrix.rows.len();
        let mut cols = Vec::new();
        let mut unsat = false;
        for (xor, origin) in rows {
            cols.clear();
            for &v in xor.vars() {
                let i = v.index();
                if self.touching.len() <= i {
                    self.touching.resize_with(i + 1, Vec::new);
                }
                let known = self.touching[i].iter().find(|&&(s, _)| s as usize == slot);
                let col = match known {
                    Some(&(_, col)) => col as usize,
                    None => {
                        let col = matrix.push_col(v, assign[i]);
                        self.touching[i].push((slot as u32, col as u32));
                        col
                    }
                };
                cols.push(col);
            }
            if let Err(from) = matrix.insert_row(&cols, xor.rhs(), *origin, &mut self.row_ops) {
                // The contradiction `0 = 1` is the sum of the named
                // originals; record the derivation (a singleton is the
                // original itself — already logged as a row).
                if self.tracking && from.len() > 1 {
                    self.derives.push(RowDerive {
                        guard: guard_lit.var(),
                        vars: Vec::new(),
                        rhs: true,
                        from,
                    });
                }
                unsat = true;
                break;
            }
        }
        if unsat {
            self.drop_matrix(guard);
            return BuildOutcome::LayerUnsat;
        }
        let total = matrix.rows.len();
        if total == 0 {
            // Every row was redundant: nothing to watch, drop the shell.
            self.drop_matrix(guard);
        }
        BuildOutcome::Built {
            added: total - rows_before,
            fresh: fresh && total > 0,
        }
    }

    /// Number of rows in the guard's installed matrix (zero if none).
    pub(crate) fn matrix_rows(&self, guard: GuardKey) -> usize {
        self.slot(guard)
            .and_then(|slot| self.matrices[slot].as_ref())
            .map_or(0, |m| m.rows.len())
    }

    fn drop_matrix(&mut self, guard: GuardKey) {
        let Some(slot) = self.slot(guard) else {
            return;
        };
        self.slot_of[guard as usize] = None;
        if let Some(matrix) = self.matrices[slot].take() {
            self.live -= 1;
            for v in &matrix.cols {
                self.touching[v.index()].retain(|&(s, _)| s as usize != slot);
            }
        }
    }

    /// Removes the guard's matrix and any pending rows. Returns the number
    /// of matrix rows dropped.
    pub(crate) fn retire(&mut self, guard_var: Var) -> usize {
        let key = guard_var.index() as GuardKey;
        self.pending.retain(|(g, _)| *g != key);
        let rows = self.matrix_rows(key);
        self.drop_matrix(key);
        rows
    }

    /// The antecedent literals of a result of the current scan.
    #[cfg(test)]
    pub(crate) fn result_reason(&self, reason: Range<usize>) -> &[Lit] {
        &self.result_lits[reason]
    }

    /// Records the antecedents of an implication the solver enqueued (a
    /// result of the current scan); they stay retrievable (via
    /// [`GaussEngine::reason_for`]) until the variable is implied again,
    /// which can only happen after backtracking unassigned it.
    pub(crate) fn store_reason(&mut self, var: Var, reason: Range<usize>) {
        let i = var.index();
        if self.reasons.len() <= i {
            self.reasons.resize_with(i + 1, Vec::new);
        }
        let stored = &mut self.reasons[i];
        stored.clear();
        stored.extend_from_slice(&self.result_lits[reason]);
    }

    /// The antecedent literals stored for the most recent implication of
    /// `var` (all currently false).
    pub(crate) fn reason_for(&self, var: Var) -> &[Lit] {
        self.reasons
            .get(var.index())
            .expect("gauss reason queried for a variable it never implied")
    }

    /// Stores the conflict clause `reason ∨ lit` for a result of the
    /// current scan whose implied literal is already false.
    pub(crate) fn set_conflict(&mut self, reason: Range<usize>, lit: Lit) {
        self.conflict.clear();
        self.conflict.extend_from_slice(&self.result_lits[reason]);
        self.conflict.push(lit);
    }

    /// The literals of the most recent conflict (all currently false).
    pub(crate) fn conflict_lits(&self) -> &[Lit] {
        &self.conflict
    }

    /// Reacts to the assignment of `var`: re-pivots matrices whose basic
    /// variable it is, then scans affected matrices for implications and
    /// conflicts. `var` may also be a guard variable, in which case the
    /// layer's pending implications fire on activation. `assign` is the
    /// solver's assignment (already mirrored via [`GaussEngine::set_value`]).
    pub(crate) fn on_assign(
        &mut self,
        var: Var,
        assign: &[Option<bool>],
        results: &mut Vec<GaussResult>,
    ) {
        if results.is_empty() {
            self.result_lits.clear();
        }
        // Guard event: the matrix (if any) may just have become active.
        let key = var.index() as GuardKey;
        if let Some(slot) = self.slot(key) {
            self.scan_rows(slot, None, assign, results);
        }
        // Take (rather than clone) the touching list and the affected-rows
        // buffer: this runs for nearly every propagated literal of a hashed
        // solve, so the loop must not allocate. Nothing inside the loop
        // mutates `touching`, so the list is restored verbatim below.
        let Some(entry) = self.touching.get_mut(var.index()) else {
            return;
        };
        if entry.is_empty() {
            return;
        }
        let pairs = std::mem::take(entry);
        let mut affected = std::mem::take(&mut self.affected_scratch);
        for &(slot, col) in &pairs {
            // Only rows whose contents or column set this assignment could
            // have changed need a state check: rows containing the assigned
            // column, plus rows rewritten by the re-pivot elimination
            // (which may have gained or lost the column in the process).
            // `affected` stays tiny (≤ the layer's row count), so the
            // linear dedup below beats any set structure.
            affected.clear();
            let (slot, col) = (slot as usize, col as usize);
            let matrix = self.matrices[slot]
                .as_mut()
                .expect("touching lists name installed matrices only");
            matrix.repivot_on_assign(col, &mut self.row_ops, &mut affected);
            let repivoted = affected.len();
            for (i, row) in matrix.rows.iter().enumerate() {
                if row.get(col) && !affected[..repivoted].contains(&i) {
                    affected.push(i);
                }
            }
            self.scan_rows(slot, Some(&affected), assign, results);
            if matches!(results.last(), Some(GaussResult::Conflict)) {
                break;
            }
        }
        self.affected_scratch = affected;
        self.touching[var.index()] = pairs;
    }

    /// Scans every row of one matrix under the current assignment, pushing
    /// implications (and at most one conflict, which terminates the scan).
    /// Used on guard activation and at seal time, where any row may fire.
    pub(crate) fn scan_matrix(
        &mut self,
        guard: GuardKey,
        assign: &[Option<bool>],
        results: &mut Vec<GaussResult>,
    ) {
        if results.is_empty() {
            self.result_lits.clear();
        }
        if let Some(slot) = self.slot(guard) {
            self.scan_rows(slot, None, assign, results);
        }
    }

    /// Scans the given rows (all of them for `None`) of one matrix under
    /// the current assignment, pushing implications (and at most one
    /// conflict, which terminates the scan).
    fn scan_rows(
        &mut self,
        slot: usize,
        rows: Option<&[usize]>,
        assign: &[Option<bool>],
        results: &mut Vec<GaussResult>,
    ) {
        let Some(matrix) = self.matrices[slot].as_mut() else {
            return;
        };
        debug_assert!(
            matrix.mirrors(assign),
            "gauss column mirror diverged from the solver's assignment"
        );
        let g = matrix.guard;
        // None: the guard is unassigned (layer pending). Some(true): the
        // guard is satisfied (layer dormant). Some(false): layer active.
        let guard_value = assign[g.var().index()].map(|v| g.evaluate(v));
        if guard_value == Some(true) {
            return; // dormant: `g ∨ row` is satisfied outright
        }
        let active = guard_value == Some(false);
        let lits = &mut self.result_lits;
        let mut indices = 0..matrix.rows.len();
        let mut listed = rows.map(|r| r.iter().copied());
        let mut next = || match listed.as_mut() {
            Some(iter) => iter.next(),
            None => indices.next(),
        };
        while let Some(index) = next() {
            let row = &matrix.rows[index];
            let state = matrix.state_of(row);
            let fires = match state.unassigned {
                0 => state.parity != row.rhs,
                1 => active,
                _ => false,
            };
            if !fires {
                continue;
            }
            let rhs = row.rhs;
            // Any row that fires came from the *reduced* matrix; record its
            // derivation from the logged originals so the proof checker can
            // reproduce the implication (singleton combos are the originals
            // themselves, and each distinct combination is logged only
            // once).
            if self.tracking {
                matrix.note_derive(index, &mut self.derives);
            }
            let start = lits.len();
            matrix.falsified_lits(&matrix.rows[index], lits);
            if state.unassigned == 1 {
                let lit = matrix.cols[state.unassigned_col].lit(rhs ^ state.parity);
                lits.push(g);
                results.push(GaussResult::Implied {
                    lit,
                    reason: start..lits.len(),
                });
            } else if active {
                lits.push(g);
                self.conflict.clear();
                self.conflict.extend_from_slice(&lits[start..]);
                lits.truncate(start);
                results.push(GaussResult::Conflict);
                return;
            } else {
                // Guard unassigned: `g ∨ row` is unit on the guard.
                results.push(GaussResult::Implied {
                    lit: g,
                    reason: start..lits.len(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A solver-side assignment driving the engine through its mirror
    /// entry point, as `Solver::enqueue`/`backtrack_to` do.
    struct Assignment(Vec<Option<bool>>);

    impl Assignment {
        fn new() -> Self {
            Assignment(vec![None; 10])
        }

        fn set(&mut self, engine: &mut GaussEngine, var: Var, value: bool) {
            self.0[var.index()] = Some(value);
            engine.set_value(var, Some(value));
        }
    }

    fn xor(vars: &[usize], rhs: bool) -> XorClause {
        XorClause::new(vars.iter().map(|&i| Var::new(i)).collect::<Vec<_>>(), rhs)
    }

    fn guard_var() -> Var {
        Var::new(9)
    }

    fn guard_lit() -> Lit {
        guard_var().positive()
    }

    fn implied_lits(results: &[GaussResult]) -> Vec<Lit> {
        results
            .iter()
            .map(|r| match r {
                GaussResult::Implied { lit, .. } => *lit,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn reason_of<'e>(engine: &'e GaussEngine, result: &GaussResult) -> &'e [Lit] {
        match result {
            GaussResult::Implied { reason, .. } => engine.result_reason(reason.clone()),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn build(engine: &mut GaussEngine, rows: &[XorClause]) -> BuildOutcome {
        let rows: Vec<(XorClause, u64)> = rows.iter().map(|x| (x.clone(), 0)).collect();
        engine.build(9, guard_lit(), &rows, &Assignment::new().0)
    }

    #[test]
    fn contradictory_rows_reduce_to_layer_unsat() {
        let mut engine = GaussEngine::default();
        // x0⊕x1 = 0, x1⊕x2 = 1, x0⊕x2 = 0 sums to 0 = 1.
        let outcome = build(
            &mut engine,
            &[xor(&[0, 1], false), xor(&[1, 2], true), xor(&[0, 2], false)],
        );
        assert_eq!(outcome, BuildOutcome::LayerUnsat);
        assert!(engine.is_idle());
    }

    #[test]
    fn redundant_rows_are_dropped() {
        let mut engine = GaussEngine::default();
        let outcome = build(
            &mut engine,
            &[xor(&[0, 1], true), xor(&[1, 2], false), xor(&[0, 2], true)],
        );
        assert_eq!(
            outcome,
            BuildOutcome::Built {
                added: 2,
                fresh: true
            }
        );
    }

    #[test]
    fn cross_row_implication_is_found() {
        let mut engine = GaussEngine::default();
        // x0⊕x1 = 0 and x0⊕x1⊕x2 = 1 together force x2 = 1 with *no*
        // assignment at all — the reduction digests it, and activation
        // (assigning ¬g) fires the implication.
        let outcome = build(&mut engine, &[xor(&[0, 1], false), xor(&[0, 1, 2], true)]);
        assert_eq!(
            outcome,
            BuildOutcome::Built {
                added: 2,
                fresh: true
            }
        );
        let mut assigned = Assignment::new();
        assigned.set(&mut engine, guard_var(), false); // ¬g: layer active
        let mut results = Vec::new();
        engine.on_assign(guard_var(), &assigned.0, &mut results);
        assert_eq!(implied_lits(&results), vec![Var::new(2).positive()]);
        assert!(reason_of(&engine, &results[0]).contains(&guard_lit()));
    }

    #[test]
    fn violated_rows_imply_the_guard_while_unassigned() {
        let mut engine = GaussEngine::default();
        build(&mut engine, &[xor(&[0, 1], true)]);
        let mut assigned = Assignment::new();
        assigned.set(&mut engine, Var::new(0), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(0), &assigned.0, &mut results);
        assert!(results.is_empty(), "guard unassigned, row still open");
        assigned.set(&mut engine, Var::new(1), true); // parity now violated
        engine.on_assign(Var::new(1), &assigned.0, &mut results);
        assert_eq!(implied_lits(&results), vec![guard_lit()]);
        // The reason is the falsified row, without the guard itself.
        let reason = reason_of(&engine, &results[0]);
        assert_eq!(reason.len(), 2);
        assert!(!reason.contains(&guard_lit()));
    }

    #[test]
    fn active_violated_row_is_a_conflict_with_guard_in_the_clause() {
        let mut engine = GaussEngine::default();
        build(&mut engine, &[xor(&[0, 1], true)]);
        let mut assigned = Assignment::new();
        assigned.set(&mut engine, guard_var(), false);
        assigned.set(&mut engine, Var::new(0), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(0), &assigned.0, &mut results);
        results.clear();
        assigned.set(&mut engine, Var::new(1), true);
        engine.on_assign(Var::new(1), &assigned.0, &mut results);
        assert_eq!(results, vec![GaussResult::Conflict]);
        let lits = engine.conflict_lits();
        assert_eq!(lits.len(), 3);
        assert!(lits.contains(&guard_lit()));
    }

    #[test]
    fn dormant_matrix_is_silent() {
        let mut engine = GaussEngine::default();
        build(&mut engine, &[xor(&[0, 1], true)]);
        let mut assigned = Assignment::new();
        assigned.set(&mut engine, guard_var(), true); // g: layer dormant
        assigned.set(&mut engine, Var::new(0), true);
        assigned.set(&mut engine, Var::new(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(0), &assigned.0, &mut results);
        engine.on_assign(Var::new(1), &assigned.0, &mut results);
        assert!(results.is_empty());
    }

    #[test]
    fn repivot_keeps_propagating_after_basic_assignment() {
        let mut engine = GaussEngine::default();
        // Two rows over four variables.
        build(
            &mut engine,
            &[xor(&[0, 1, 2], false), xor(&[1, 2, 3], true)],
        );
        let mut assigned = Assignment::new();
        assigned.set(&mut engine, guard_var(), false);
        let mut results = Vec::new();
        engine.on_assign(guard_var(), &assigned.0, &mut results);
        assert!(results.is_empty());
        // Assign both basics' candidates one by one; whatever the internal
        // pivots are, after x0 and x1 the system x2 = x0⊕x1, x3 = ¬(x1⊕x2)
        // must imply the rest.
        assigned.set(&mut engine, Var::new(0), true);
        engine.on_assign(Var::new(0), &assigned.0, &mut results);
        assigned.set(&mut engine, Var::new(1), true);
        engine.on_assign(Var::new(1), &assigned.0, &mut results);
        // x0⊕x1⊕x2 = 0 with x0 = x1 = 1 forces x2 = 0; then x1⊕x2⊕x3 = 1
        // forces x3 = 0.
        assert!(implied_lits(&results).contains(&Var::new(2).negative()));
    }

    #[test]
    fn tracked_cross_row_implication_records_its_derivation() {
        let mut engine = GaussEngine::default();
        engine.set_tracking(true);
        let mut assigned = Assignment::new();
        let rows = vec![(xor(&[0, 1], false), 7), (xor(&[0, 1, 2], true), 8)];
        engine.build(9, guard_lit(), &rows, &assigned.0);
        assigned.set(&mut engine, guard_var(), false);
        let mut results = Vec::new();
        engine.on_assign(guard_var(), &assigned.0, &mut results);
        assert_eq!(implied_lits(&results), vec![Var::new(2).positive()]);
        let derives = engine.take_derives();
        assert_eq!(derives.len(), 1);
        assert_eq!(derives[0].guard, guard_var());
        assert_eq!(derives[0].vars, vec![Var::new(2)]);
        assert!(derives[0].rhs);
        assert_eq!(derives[0].from, vec![7, 8]);
        // The same combination firing again is not re-logged.
        engine.on_assign(guard_var(), &assigned.0, &mut results);
        assert!(!engine.has_derives());
    }

    #[test]
    fn tracked_layer_unsat_records_the_contradiction() {
        let mut engine = GaussEngine::default();
        engine.set_tracking(true);
        let rows = vec![
            (xor(&[0, 1], false), 3),
            (xor(&[1, 2], true), 4),
            (xor(&[0, 2], false), 5),
        ];
        let outcome = engine.build(9, guard_lit(), &rows, &Assignment::new().0);
        assert_eq!(outcome, BuildOutcome::LayerUnsat);
        let derives = engine.take_derives();
        assert_eq!(derives.len(), 1);
        assert_eq!(derives[0].guard, guard_var());
        assert!(derives[0].vars.is_empty());
        assert!(derives[0].rhs);
        assert_eq!(derives[0].from, vec![3, 4, 5]);
    }

    #[test]
    fn retire_drops_matrix_and_pending() {
        let mut engine = GaussEngine::default();
        engine.push_pending(9, xor(&[0, 1], true), 0);
        assert!(engine.has_pending());
        build(&mut engine, &[xor(&[2, 3], false)]);
        assert_eq!(engine.retire(Var::new(9)), 1);
        assert!(!engine.has_pending());
        assert!(engine.is_idle());
        let mut assigned = Assignment::new();
        assigned.set(&mut engine, Var::new(2), true);
        assigned.set(&mut engine, Var::new(3), false);
        let mut results = Vec::new();
        engine.on_assign(Var::new(2), &assigned.0, &mut results);
        assert!(results.is_empty());
    }

    /// What one row yields under an assignment: an implication (literal
    /// plus reason) or a conflict clause.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        Implied(Lit, Vec<Lit>),
        Conflict(Vec<Lit>),
    }

    /// The scalar reference for [`GaussMatrix::state_of`]: walks the row's
    /// columns and asks the assignment for each value. The count saturates
    /// at 2 and the column and parity are reported only where the scan
    /// reads them, matching [`RowState`]'s contract.
    fn scalar_state(m: &GaussMatrix, row: &Row, assign: &[Option<bool>]) -> (u32, usize, bool) {
        let mut unassigned = 0u32;
        let mut col = 0;
        let mut parity = false;
        for c in row.cols() {
            match assign[m.cols[c].index()] {
                Some(v) => parity ^= v,
                None => {
                    unassigned += 1;
                    col = c;
                }
            }
        }
        match unassigned {
            0 => (0, 0, parity),
            1 => (1, col, parity),
            _ => (2, 0, false),
        }
    }

    fn packed_state(m: &GaussMatrix, row: &Row) -> (u32, usize, bool) {
        let state = m.state_of(row);
        match state.unassigned {
            0 => (0, 0, state.parity),
            1 => (1, state.unassigned_col, state.parity),
            _ => (2, 0, false),
        }
    }

    /// The scalar reason side of a row: its assigned variables' falsified
    /// literals, in column order.
    fn scalar_falsified(m: &GaussMatrix, row: &Row, assign: &[Option<bool>]) -> Vec<Lit> {
        row.cols()
            .filter_map(|c| {
                let v = m.cols[c];
                assign[v.index()].map(|value| v.lit(!value))
            })
            .collect()
    }

    /// The scan's decision for one row, from the scalar evaluation.
    fn scalar_event(m: &GaussMatrix, row: &Row, assign: &[Option<bool>]) -> Option<Event> {
        let g = m.guard;
        let guard_value = assign[g.var().index()].map(|v| g.evaluate(v));
        if guard_value == Some(true) {
            return None;
        }
        let active = guard_value == Some(false);
        let (unassigned, col, parity) = scalar_state(m, row, assign);
        let mut lits = scalar_falsified(m, row, assign);
        match unassigned {
            0 if parity != row.rhs => {
                if active {
                    lits.push(g);
                    Some(Event::Conflict(lits))
                } else {
                    Some(Event::Implied(g, lits))
                }
            }
            1 if active => {
                lits.push(g);
                Some(Event::Implied(m.cols[col].lit(row.rhs ^ parity), lits))
            }
            _ => None,
        }
    }

    fn events(engine: &GaussEngine, results: &[GaussResult]) -> Vec<Event> {
        results
            .iter()
            .map(|r| match r {
                GaussResult::Implied { lit, reason } => {
                    Event::Implied(*lit, engine.result_reason(reason.clone()).to_vec())
                }
                GaussResult::Conflict => Event::Conflict(engine.conflict_lits().to_vec()),
            })
            .collect()
    }

    /// Random layers over up to 130 columns (rows span the 64-bit word
    /// boundary), a few assignments made before the build, then a random
    /// sequence of trail assignments and backjumps.
    type Case = (
        usize,
        Vec<(Vec<usize>, bool)>,
        Vec<(usize, bool)>,
        Vec<(usize, bool, u8)>,
    );

    fn cases() -> impl Strategy<Value = Case> {
        (2usize..131).prop_flat_map(|width| {
            // Hash rows span about half the sampling set, so a layer's
            // columns cover most of it.
            let row = (
                proptest::collection::vec(0..width, (width / 4).max(1)..width + 1),
                proptest::bool::ANY,
            );
            let rows = proptest::collection::vec(row, 1..10);
            let pre = proptest::collection::vec((0..width + 1, proptest::bool::ANY), 0..4);
            // (pick among the unassigned variables — the guard included —,
            // value, kind: 0 = backjump)
            let op = (0..usize::MAX, proptest::bool::ANY, 0u8..16);
            let ops = proptest::collection::vec(op, 100..500);
            (Just(width), rows, pre, ops)
        })
    }

    /// Changes one variable's value on both sides of the mirror.
    fn set(engine: &mut GaussEngine, assign: &mut [Option<bool>], var: usize, value: Option<bool>) {
        assign[var] = value;
        engine.set_value(Var::new(var), value);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bit_packed_rows_match_the_scalar_oracle((width, rows, pre, ops) in cases()) {
            let guard = Var::new(width);
            let mut engine = GaussEngine::default();
            let mut assign = vec![None; width + 1];
            let mut trail = Vec::new();
            for &(var, value) in &pre {
                if assign[var].is_none() {
                    set(&mut engine, &mut assign, var, Some(value));
                    trail.push(var);
                }
            }
            let rows: Vec<(XorClause, u64)> = rows
                .iter()
                .map(|(vars, rhs)| {
                    let vars: Vec<Var> = vars.iter().map(|&v| Var::new(v)).collect();
                    (XorClause::new(vars, *rhs), 0)
                })
                .collect();
            let outcome = engine.build(width as GuardKey, guard.positive(), &rows, &assign);
            if !matches!(outcome, BuildOutcome::Built { .. }) || engine.is_idle() {
                return Ok(());
            }
            let mut results = Vec::new();
            for &(pick, value, kind) in &ops {
                results.clear();
                let open: Vec<usize> = (0..=width).filter(|&v| assign[v].is_none()).collect();
                if kind == 0 || open.is_empty() {
                    for _ in 0..=(pick % 4) {
                        if let Some(v) = trail.pop() {
                            set(&mut engine, &mut assign, v, None);
                        }
                    }
                } else {
                    let var = open[pick % open.len()];
                    set(&mut engine, &mut assign, var, Some(value));
                    trail.push(var);
                    engine.on_assign(Var::new(var), &assign, &mut results);
                }
                let m = engine.matrices[0].as_ref().expect("the one matrix sits in slot 0");
                prop_assert!(m.mirrors(&assign));
                let mut oracle = Vec::new();
                for row in &m.rows {
                    prop_assert_eq!(packed_state(m, row), scalar_state(m, row, &assign));
                    let mut lits = Vec::new();
                    m.falsified_lits(row, &mut lits);
                    prop_assert_eq!(lits, scalar_falsified(m, row, &assign));
                    oracle.extend(scalar_event(m, row, &assign));
                }
                // A propagation scans a subset of the rows: each of its
                // events is some row's oracle event.
                for event in events(&engine, &results) {
                    prop_assert!(oracle.contains(&event), "{event:?} not in {oracle:?}");
                }
                // A full scan reports every row's event in row order, up to
                // and including the first conflict.
                if let Some(first) = oracle.iter().position(|e| matches!(e, Event::Conflict(_))) {
                    oracle.truncate(first + 1);
                }
                results.clear();
                engine.scan_matrix(width as GuardKey, &assign, &mut results);
                prop_assert_eq!(events(&engine, &results), oracle);
            }
        }
    }
}
