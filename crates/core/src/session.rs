//! Cable sessions: the lattice, concept states, labeling, summaries, and
//! focus.

use crate::label::{Label, LabelStore};
use cable_fa::{Fa, TransId};
use cable_fca::{ConceptId, ConceptLattice, Context};
use cable_learn::SkStrings;
use cable_obs::{CounterHandle, HistogramHandle, Span};
use cable_trace::{IdenticalClass, Trace, TraceId, TraceSet, Vocab};
use cable_util::BitSet;
use std::fmt::Write as _;

/// Sessions built (context + lattice construction).
static SESSIONS_BUILT: CounterHandle = CounterHandle::new("core.session.built");
/// Wall-clock cost of building a session.
static SESSION_BUILD_NS: HistogramHandle = HistogramHandle::new("core.session.build_ns");
/// `Label traces` operations.
static LABEL_OPS: CounterHandle = CounterHandle::new("core.session.label_ops");
/// Classes relabeled across all `Label traces` operations.
static CLASSES_LABELED: CounterHandle = CounterHandle::new("core.session.classes_labeled");
/// `Show FA` summary views computed.
static SHOW_FA_OPS: CounterHandle = CounterHandle::new("core.session.show_fa_ops");
/// Focused sub-sessions started.
static FOCUS_OPS: CounterHandle = CounterHandle::new("core.session.focus_ops");
/// Traces absorbed live through `push_traces`.
static TRACES_PUSHED: CounterHandle = CounterHandle::new("core.session.traces_pushed");
/// Pushed traces that founded a fresh class (one lattice insertion each).
static CLASSES_PUSHED: CounterHandle = CounterHandle::new("core.session.classes_pushed");

/// The labeling state of a concept (§4.1). The original Cable displayed
/// these as green, yellow and red.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConceptState {
    /// Unlabeled traces only (green). An empty concept is never in this
    /// state.
    Unlabeled,
    /// Some labeled and some unlabeled traces (yellow).
    PartlyLabeled,
    /// No unlabeled traces (red) — including the empty concept.
    FullyLabeled,
}

/// Which of a concept's traces a command applies to — the choice Cable
/// offers for `Label traces` and the summary views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSelector {
    /// All of the concept's traces.
    All,
    /// Only the unlabeled traces.
    Unlabeled,
    /// Only the traces with the given label.
    WithLabel(String),
}

impl std::str::FromStr for TraceSelector {
    type Err = String;

    /// `all`, `unlabeled` or `with:<label>`; the error names the input.
    fn from_str(s: &str) -> Result<TraceSelector, String> {
        match s {
            "all" => Ok(TraceSelector::All),
            "unlabeled" => Ok(TraceSelector::Unlabeled),
            _ => match s.strip_prefix("with:") {
                Some(name) => Ok(TraceSelector::WithLabel(name.to_owned())),
                None => Err(format!(
                    "selector {s:?} is not \"all\", \"unlabeled\", or \"with:<label>\""
                )),
            },
        }
    }
}

/// Parses a labeling script (the file `cable label --script` reads) into
/// `(concept, selector, label)` commands. Lines are
/// `label c<N> <all|unlabeled|with:NAME> <label>`; blank lines and `;`
/// comments are skipped, and concept ids must be below `lattice_len`.
///
/// # Errors
///
/// `line N: …` for the first line (1-based) that does not parse.
pub fn parse_script(
    script: &str,
    lattice_len: usize,
) -> Result<Vec<(ConceptId, TraceSelector, String)>, String> {
    let mut commands = Vec::new();
    for (lineno, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let error = |message: &str| format!("line {}: {message}", lineno + 1);
        let ["label", concept, selector, name] = line.split_whitespace().collect::<Vec<_>>()[..]
        else {
            return Err(error("expected `label <concept> <selector> <name>`"));
        };
        let id = concept
            .strip_prefix('c')
            .and_then(|n| n.parse::<u32>().ok())
            .map(ConceptId)
            .filter(|id| id.index() < lattice_len)
            .ok_or_else(|| error(&format!("unknown concept {concept:?}")))?;
        let selector = selector
            .parse()
            .map_err(|_| error("selector must be all, unlabeled or with:NAME"))?;
        commands.push((id, selector, name.to_owned()));
    }
    Ok(commands)
}

/// A Cable debugging session over one set of traces and one reference FA.
///
/// Identical traces are grouped into classes (the lattice objects, as in
/// §5.2); labels attach to classes, so labeling one trace of a class
/// labels them all — identical traces are indistinguishable to every
/// summary view and must be classified together.
#[derive(Debug, Clone)]
pub struct CableSession {
    traces: TraceSet,
    classes: Vec<IdenticalClass>,
    class_of: Vec<usize>,
    fa: Fa,
    context: Context,
    lattice: ConceptLattice,
    labels: LabelStore,
}

impl CableSession {
    /// Builds a session: computes each class representative's executed
    /// transitions under the reference FA (the relation `R` of §3.2) and
    /// the concept lattice of the resulting context.
    pub fn new(traces: TraceSet, fa: Fa) -> Self {
        let _span = Span::enter("core.session.build", &SESSION_BUILD_NS);
        SESSIONS_BUILT.get().incr();
        let classes = traces.identical_classes();
        let representatives: Vec<&Trace> = classes
            .iter()
            .map(|class| traces.trace(class.representative))
            .collect();
        // One sweep per class representative, fanned out on the
        // cable-par pool; rows come back in class order.
        let rows = fa.executed_transitions_batch(&representatives);
        let context = Self::context_of(&rows, classes.len(), fa.transition_count());
        let lattice = ConceptLattice::build(&context);
        Self::assemble(traces, classes, fa, context, lattice)
    }

    /// [`CableSession::new`] under the installed `cable-guard` budget:
    /// both construction passes — the executed-transition sweep and the
    /// Godin lattice build — checkpoint as they go, and a trip returns a
    /// *valid partial session* over the leading trace classes instead of
    /// panicking or hanging.
    ///
    /// The partial session is exactly the session [`CableSession::new`]
    /// would build over the covered classes' traces (prefix-exact, see
    /// [`cable_fca::PartialBuild`]); a concept-count trip lands at the
    /// same class whatever `CABLE_PAR` is, so those partials are
    /// deterministic across worker counts.
    ///
    /// # Errors
    ///
    /// A [`SessionStop`] carrying the typed [`cable_guard::GuardError`]
    /// and the partial session.
    pub fn try_new(traces: TraceSet, fa: Fa) -> Result<Self, Box<SessionStop>> {
        let _span = Span::enter("core.session.build", &SESSION_BUILD_NS);
        SESSIONS_BUILT.get().incr();
        let classes = traces.identical_classes();
        let representatives: Vec<&Trace> = classes
            .iter()
            .map(|class| traces.trace(class.representative))
            .collect();
        let rows = match fa.try_executed_transitions_batch(&representatives) {
            Ok(rows) => rows,
            Err(stop) => {
                let k = stop.traces_swept;
                let partial = Self::prefix_session(&traces, &fa, &classes, &stop.partial, k, None);
                return Err(Box::new(SessionStop {
                    error: stop.error,
                    partial,
                    classes_clustered: k,
                }));
            }
        };
        let context = Self::context_of(&rows, classes.len(), fa.transition_count());
        match ConceptLattice::try_build(&context) {
            Ok(lattice) => Ok(Self::assemble(traces, classes, fa, context, lattice)),
            Err(stop) => {
                let k = stop.objects_inserted;
                let partial =
                    Self::prefix_session(&traces, &fa, &classes, &rows, k, Some(stop.lattice));
                Err(Box::new(SessionStop {
                    error: stop.error,
                    partial,
                    classes_clustered: k,
                }))
            }
        }
    }

    fn context_of(rows: &[BitSet], n_objects: usize, n_attrs: usize) -> Context {
        let mut context = Context::new(n_objects, n_attrs);
        for (c, executed) in rows.iter().enumerate() {
            for a in executed.iter() {
                context.add(c, a);
            }
        }
        context
    }

    fn assemble(
        traces: TraceSet,
        classes: Vec<IdenticalClass>,
        fa: Fa,
        context: Context,
        lattice: ConceptLattice,
    ) -> CableSession {
        let mut class_of = vec![0usize; traces.len()];
        for (c, class) in classes.iter().enumerate() {
            for &m in &class.members {
                class_of[m.index()] = c;
            }
        }
        let labels = LabelStore::new(classes.len());
        CableSession {
            traces,
            classes,
            class_of,
            fa,
            context,
            lattice,
            labels,
        }
    }

    /// A valid session over the first `k` trace classes: traces of later
    /// classes are dropped, the context keeps the first `k` rows, and
    /// the lattice is the supplied prefix-exact partial — or is built
    /// fresh from the truncated context when the sweep itself was the
    /// pass that stopped.
    fn prefix_session(
        traces: &TraceSet,
        fa: &Fa,
        classes: &[IdenticalClass],
        rows: &[BitSet],
        k: usize,
        lattice: Option<ConceptLattice>,
    ) -> CableSession {
        let mut keep = vec![false; traces.len()];
        for class in &classes[..k] {
            for &m in &class.members {
                keep[m.index()] = true;
            }
        }
        let mut sub = TraceSet::new();
        for (id, t) in traces.iter() {
            if keep[id.index()] {
                sub.push(t.clone());
            }
        }
        // Dropping whole trailing classes preserves the grouping of the
        // leading ones: same classes, same order, same representatives.
        let sub_classes = sub.identical_classes();
        debug_assert_eq!(sub_classes.len(), k);
        let context = Self::context_of(&rows[..k], k, fa.transition_count());
        let lattice = lattice.unwrap_or_else(|| ConceptLattice::build(&context));
        Self::assemble(sub, sub_classes, fa.clone(), context, lattice)
    }

    /// The traces being debugged.
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// The reference FA that defines trace similarity.
    pub fn reference_fa(&self) -> &Fa {
        &self.fa
    }

    /// The trace-class × transition context.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// The concept lattice.
    pub fn lattice(&self) -> &ConceptLattice {
        &self.lattice
    }

    /// The label store (class-indexed).
    pub fn labels(&self) -> &LabelStore {
        &self.labels
    }

    /// The classes of identical traces (the lattice objects).
    pub fn classes(&self) -> &[IdenticalClass] {
        &self.classes
    }

    /// The class index of a trace.
    pub fn class_of(&self, trace: TraceId) -> usize {
        self.class_of[trace.index()]
    }

    /// The label of a trace (via its class), if any.
    pub fn label_of_trace(&self, trace: TraceId) -> Option<Label> {
        self.labels.get(self.class_of(trace))
    }

    /// The state of a concept.
    pub fn concept_state(&self, concept: ConceptId) -> ConceptState {
        let extent = &self.lattice.concept(concept).extent;
        let mut labeled = false;
        let mut unlabeled = false;
        for c in extent.iter() {
            if self.labels.is_labeled(c) {
                labeled = true;
            } else {
                unlabeled = true;
            }
        }
        match (labeled, unlabeled) {
            (_, false) => ConceptState::FullyLabeled,
            (false, true) => ConceptState::Unlabeled,
            (true, true) => ConceptState::PartlyLabeled,
        }
    }

    /// The class indices a selector picks within a concept.
    pub fn select(&self, concept: ConceptId, selector: &TraceSelector) -> Vec<usize> {
        let extent = &self.lattice.concept(concept).extent;
        extent
            .iter()
            .filter(|&c| match selector {
                TraceSelector::All => true,
                TraceSelector::Unlabeled => !self.labels.is_labeled(c),
                TraceSelector::WithLabel(name) => self
                    .labels
                    .find(name)
                    .is_some_and(|l| self.labels.get(c) == Some(l)),
            })
            .collect()
    }

    /// The unlabeled class indices of a concept.
    pub fn unlabeled_in(&self, concept: ConceptId) -> Vec<usize> {
        self.select(concept, &TraceSelector::Unlabeled)
    }

    /// All trace ids (not classes) a selector picks within a concept.
    pub fn select_traces(&self, concept: ConceptId, selector: &TraceSelector) -> Vec<TraceId> {
        self.select(concept, selector)
            .into_iter()
            .flat_map(|c| self.classes[c].members.iter().copied())
            .collect()
    }

    /// The `Label traces` command: labels the selected traces of a
    /// concept. Because no trace may have more than one label, the new
    /// label replaces any existing labels of the selection. Returns the
    /// number of classes affected.
    pub fn label_traces(
        &mut self,
        concept: ConceptId,
        selector: &TraceSelector,
        label: &str,
    ) -> usize {
        let selected = self.select(concept, selector);
        self.apply_label(&selected, label);
        selected.len()
    }

    /// Applies one label op to `classes` and counts it: one
    /// `core.session.label_ops`, and `core.session.classes_labeled` by
    /// the classes applied. Shared by the in-memory and the stored
    /// label paths, so an op counts once whichever path applies it.
    pub(crate) fn apply_label(&mut self, classes: &[usize], label: &str) {
        for &c in classes {
            self.labels.set(c, label);
        }
        LABEL_OPS.get().incr();
        CLASSES_LABELED.get().add(classes.len() as u64);
    }

    /// Removes every label — used when re-running strategies.
    pub fn clear_labels(&mut self) {
        self.labels.clear_all();
    }

    /// Tests whether every trace is labeled.
    pub fn all_labeled(&self) -> bool {
        self.labels.all_labeled()
    }

    /// All representative traces carrying the given label name (one per
    /// class) — what the user feeds back to the miner or uses to fix the
    /// specification.
    pub fn representatives_with_label(&self, name: &str) -> Vec<&Trace> {
        match self.labels.find(name) {
            None => Vec::new(),
            Some(label) => self
                .labels
                .objects_with(label)
                .into_iter()
                .map(|c| self.traces.trace(self.classes[c].representative))
                .collect(),
        }
    }

    /// All traces (not just representatives) carrying the given label.
    pub fn traces_with_label(&self, name: &str) -> Vec<TraceId> {
        match self.labels.find(name) {
            None => Vec::new(),
            Some(label) => self
                .labels
                .objects_with(label)
                .into_iter()
                .flat_map(|c| self.classes[c].members.iter().copied())
                .collect(),
        }
    }

    /// Incrementally absorbs a batch of freshly reported traces into the
    /// live session — the §6 "interactive algorithms" extension, built on
    /// Godin's incremental insertion. This is the one way a session grows:
    /// the ingest path of a stored session, journal replay, and a single
    /// trace (a one-element batch) all come through here.
    ///
    /// A trace identical to an existing class joins that class
    /// (inheriting its label, if any); otherwise it founds a new class,
    /// unlabeled, whose executed-transition row is computed. The new
    /// classes enter the lattice in one
    /// [`ConceptLattice::insert_objects`] batch, so the Hasse diagram is
    /// rebuilt once. Existing labels are untouched.
    ///
    /// Returns, per trace in order, its id and whether it created a new
    /// class. Duplicates within the batch join the class the batch
    /// itself created.
    pub fn push_traces(&mut self, traces: Vec<Trace>) -> Vec<(TraceId, bool)> {
        let mut results = Vec::with_capacity(traces.len());
        let mut new_rows: Vec<(usize, BitSet)> = Vec::new();
        for trace in traces {
            TRACES_PUSHED.get().incr();
            if let Some(class) = self
                .classes
                .iter()
                .position(|c| self.traces.trace(c.representative).event_key() == trace.event_key())
            {
                let id = self.traces.push(trace);
                self.classes[class].members.push(id);
                self.class_of.push(class);
                results.push((id, false));
                continue;
            }
            CLASSES_PUSHED.get().incr();
            let executed = self.fa.executed_transitions(&trace);
            let id = self.traces.push(trace);
            let class = self.context.push_object(&executed);
            debug_assert_eq!(class, self.classes.len());
            self.classes.push(IdenticalClass {
                representative: id,
                members: vec![id],
            });
            self.class_of.push(class);
            let pushed = self.labels.push_unlabeled();
            debug_assert_eq!(pushed, class);
            new_rows.push((class, executed));
            results.push((id, true));
        }
        if !new_rows.is_empty() {
            // `lattice.` names the trace-report stage: incremental Godin
            // work attributed against lock-wait and fsync time.
            let _span = Span::open("lattice.insert");
            // `insert_objects` consumes the lattice; the default one
            // held meanwhile is assembled without a build.
            let lattice = std::mem::take(&mut self.lattice);
            self.lattice = lattice.insert_objects(new_rows.iter().map(|(c, row)| (*c, row)));
        }
        results
    }

    /// Directly labels one class by index — the replay entry point for
    /// persisted label decisions, which journal as `(class, name)`
    /// pairs rather than concept selections so they apply regardless of
    /// how the lattice has grown since. A restore counts nothing: the
    /// label op was counted when it was made.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn set_class_label(&mut self, class: usize, name: &str) {
        self.labels.set(class, name);
    }

    /// Reassembles a session from persisted parts, skipping every
    /// construction pass: the context rows and lattice concepts come in
    /// ready-made (so no `executed_transitions` sweep and no Godin
    /// build — `fca.godin.objects_inserted` stays untouched), and only
    /// the identical-class grouping is recomputed from the traces,
    /// which is deterministic. All labels start unassigned; the caller
    /// replays persisted label decisions via
    /// [`CableSession::set_class_label`].
    ///
    /// # Errors
    ///
    /// Returns a message when the parts disagree structurally — the
    /// context has the wrong number of objects or attributes for the
    /// traces and FA, or the lattice does not cover the classes.
    pub fn from_parts(
        traces: TraceSet,
        fa: Fa,
        context: Context,
        lattice: ConceptLattice,
    ) -> Result<CableSession, String> {
        let classes = traces.identical_classes();
        if context.object_count() != classes.len() {
            return Err(format!(
                "context has {} objects but the traces form {} classes",
                context.object_count(),
                classes.len()
            ));
        }
        if context.attribute_count() != fa.transition_count() {
            return Err(format!(
                "context has {} attributes but the FA has {} transitions",
                context.attribute_count(),
                fa.transition_count()
            ));
        }
        let covered = lattice.concept(lattice.top()).extent.len();
        if covered != classes.len() {
            return Err(format!(
                "lattice top covers {covered} classes, expected {}",
                classes.len()
            ));
        }
        Ok(Self::assemble(traces, classes, fa, context, lattice))
    }

    // ------------------------------------------------------------------
    // Summary views (§4.1).
    // ------------------------------------------------------------------

    /// **Show FA**: an automaton learned (with sk-strings) from the
    /// selected traces of a concept — "the most frequently used summary".
    pub fn show_fa(&self, concept: ConceptId, selector: &TraceSelector) -> Fa {
        self.show_fa_with(concept, selector, SkStrings::default())
    }

    /// **Show FA** with an explicit learner configuration.
    pub fn show_fa_with(
        &self,
        concept: ConceptId,
        selector: &TraceSelector,
        learner: SkStrings,
    ) -> Fa {
        SHOW_FA_OPS.get().incr();
        let traces: Vec<Trace> = self
            .select(concept, selector)
            .into_iter()
            .map(|c| self.traces.trace(self.classes[c].representative).clone())
            .collect();
        learner.learn(&traces)
    }

    /// **Show transitions**: the concept's intent as transition ids.
    pub fn show_transitions(&self, concept: ConceptId) -> Vec<TransId> {
        self.lattice
            .concept(concept)
            .intent
            .iter()
            .map(|a| TransId(a as u32))
            .collect()
    }

    /// **Show traces**: the selected representative traces of a concept.
    pub fn show_traces(&self, concept: ConceptId, selector: &TraceSelector) -> Vec<&Trace> {
        self.select(concept, selector)
            .into_iter()
            .map(|c| self.traces.trace(self.classes[c].representative))
            .collect()
    }

    // ------------------------------------------------------------------
    // Focus (§4.1).
    // ------------------------------------------------------------------

    /// Starts a focused sub-session on one concept's traces, clustered by
    /// a different reference FA (typically one of the §4.1 templates).
    /// Existing labels carry over into the sub-session.
    pub fn focus(&self, concept: ConceptId, fa: Fa) -> FocusSession {
        FOCUS_OPS.get().incr();
        let parent_classes: Vec<usize> = self.lattice.concept(concept).extent.iter().collect();
        let mut traces = TraceSet::new();
        for &c in &parent_classes {
            traces.push(self.traces.trace(self.classes[c].representative).clone());
        }
        let mut session = CableSession::new(traces, fa);
        // Carry existing labels into the sub-session.
        for (i, &c) in parent_classes.iter().enumerate() {
            if let Some(label) = self.labels.get(c) {
                let name = self.labels.name(label).to_owned();
                let sub_class = session.class_of(TraceId(i as u32));
                session.labels.set(sub_class, &name);
            }
        }
        FocusSession {
            parent_classes,
            session,
        }
    }

    /// Ends a focused sub-session, merging any labels it assigned back
    /// into this session (§4.1: "any labels that he assigned are
    /// automatically merged into the original session").
    pub fn merge_focus(&mut self, focus: FocusSession) {
        for (i, &parent_class) in focus.parent_classes.iter().enumerate() {
            let sub_class = focus.session.class_of(TraceId(i as u32));
            if let Some(label) = focus.session.labels.get(sub_class) {
                let name = focus.session.labels.name(label).to_owned();
                self.labels.set(parent_class, &name);
            }
        }
    }

    /// A progress summary of the labeling effort: how many classes and
    /// traces are labeled, broken down per label.
    pub fn progress(&self) -> SessionProgress {
        let mut per_label = Vec::new();
        for label in self.labels.labels_in_use() {
            let classes = self.labels.objects_with(label);
            let traces = classes.iter().map(|&c| self.classes[c].count()).sum();
            per_label.push(LabelCount {
                name: self.labels.name(label).to_owned(),
                classes: classes.len(),
                traces,
            });
        }
        per_label.sort_by(|a, b| b.classes.cmp(&a.classes).then_with(|| a.name.cmp(&b.name)));
        SessionProgress {
            classes: self.classes.len(),
            traces: self.traces.len(),
            labeled_classes: self.classes.len() - self.labels.unlabeled_count(),
            per_label,
        }
    }

    // ------------------------------------------------------------------
    // Display.
    // ------------------------------------------------------------------

    /// DOT export of the lattice with the paper's state colours (green /
    /// yellow / red) and per-concept class counts.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", name.replace('"', "\\\""));
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [style=filled, shape=box];");
        for (id, concept) in self.lattice.iter() {
            let colour = match self.concept_state(id) {
                ConceptState::Unlabeled => "palegreen",
                ConceptState::PartlyLabeled => "khaki",
                ConceptState::FullyLabeled => "lightcoral",
            };
            let n_traces: usize = concept.extent.iter().map(|c| self.classes[c].count()).sum();
            let _ = writeln!(
                out,
                "  {id} [fillcolor={colour}, label=\"{id}: {} classes / {} traces, {} transitions\"];",
                concept.extent.len(),
                n_traces,
                concept.intent.len()
            );
        }
        for (id, _) in self.lattice.iter() {
            for &child in self.lattice.children(id) {
                let _ = writeln!(out, "  {id} -> {child};");
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// A textual transition summary for display, e.g. for `Show
    /// transitions`.
    pub fn transitions_text(&self, concept: ConceptId, vocab: &Vocab) -> String {
        let mut out = String::new();
        for tid in self.show_transitions(concept) {
            let t = self.fa.transition(tid);
            let _ = writeln!(
                out,
                "{} : {} -> {} on {}",
                tid,
                t.src,
                t.dst,
                t.label.display(vocab)
            );
        }
        out
    }

    /// The extent of a concept as a bit set over class indices.
    pub fn concept_classes(&self, concept: ConceptId) -> &BitSet {
        &self.lattice.concept(concept).extent
    }
}

/// A budget-stopped [`CableSession::try_new`]: the typed error plus a
/// valid session over the leading
/// [`SessionStop::classes_clustered`] trace classes.
#[derive(Debug)]
pub struct SessionStop {
    /// Why the build stopped.
    pub error: cable_guard::GuardError,
    /// The session over the covered prefix of classes — labelable,
    /// summarisable, and persistable like any other session.
    pub partial: CableSession,
    /// How many leading trace classes the partial session covers.
    pub classes_clustered: usize,
}

/// Per-label tallies within a [`SessionProgress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelCount {
    /// The label name.
    pub name: String,
    /// Classes carrying the label.
    pub classes: usize,
    /// Traces carrying the label (classes expanded).
    pub traces: usize,
}

/// A snapshot of how far a labeling session has progressed; see
/// [`CableSession::progress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionProgress {
    /// Total classes of identical traces.
    pub classes: usize,
    /// Total traces.
    pub traces: usize,
    /// Classes with a label.
    pub labeled_classes: usize,
    /// Per-label tallies, largest first.
    pub per_label: Vec<LabelCount>,
}

impl SessionProgress {
    /// Tests whether every class is labeled.
    pub fn is_complete(&self) -> bool {
        self.labeled_classes == self.classes
    }
}

/// A focused sub-session (the `Focus` command): the traces of one
/// concept, re-clustered under a different reference FA.
#[derive(Debug, Clone)]
pub struct FocusSession {
    parent_classes: Vec<usize>,
    session: CableSession,
}

impl FocusSession {
    /// The sub-session (all [`CableSession`] operations apply).
    pub fn session(&self) -> &CableSession {
        &self.session
    }

    /// Mutable access to the sub-session.
    pub fn session_mut(&mut self) -> &mut CableSession {
        &mut self.session
    }

    /// The parent-session class indices, in sub-session trace order.
    pub fn parent_classes(&self) -> &[usize] {
        &self.parent_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_fa::templates;

    /// The running example: violation traces from verifying the Figure 1
    /// specification, clustered with the unordered template.
    fn stdio_session(v: &mut Vocab) -> CableSession {
        let texts = [
            "popen(X) fread(X) pclose(X)",
            "popen(X) fread(X) pclose(X)",
            "popen(X) fread(X)",
            "fopen(X) fwrite(X)",
            "fopen(X) fwrite(X) pclose(X)",
        ];
        let mut traces = TraceSet::new();
        for t in texts {
            traces.push(Trace::parse(t, v).unwrap());
        }
        let all: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
        let fa = templates::unordered_of_trace_events(&all);
        CableSession::new(traces, fa)
    }

    #[test]
    fn classes_group_identical_traces() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        assert_eq!(s.traces().len(), 5);
        assert_eq!(s.classes().len(), 4);
        assert_eq!(s.class_of(TraceId(0)), s.class_of(TraceId(1)));
    }

    #[test]
    fn concept_states_evolve() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let top = s.lattice().top();
        assert_eq!(s.concept_state(top), ConceptState::Unlabeled);
        // Label one child cluster.
        let child = s.lattice().children(top)[0];
        s.label_traces(child, &TraceSelector::All, "good");
        assert_eq!(s.concept_state(top), ConceptState::PartlyLabeled);
        assert_eq!(s.concept_state(child), ConceptState::FullyLabeled);
        // Label the rest.
        s.label_traces(top, &TraceSelector::Unlabeled, "bad");
        assert_eq!(s.concept_state(top), ConceptState::FullyLabeled);
        assert!(s.all_labeled());
    }

    #[test]
    fn empty_concept_is_fully_labeled() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        let bottom = s.lattice().bottom();
        if s.lattice().concept(bottom).extent.is_empty() {
            assert_eq!(s.concept_state(bottom), ConceptState::FullyLabeled);
        }
    }

    #[test]
    fn label_replaces_label() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let top = s.lattice().top();
        s.label_traces(top, &TraceSelector::All, "good");
        // Relabel the subset with label `good` to `bad`.
        let n = s.label_traces(top, &TraceSelector::WithLabel("good".into()), "bad");
        assert_eq!(n, s.classes().len());
        assert!(s.representatives_with_label("good").is_empty());
        assert_eq!(s.representatives_with_label("bad").len(), 4);
    }

    #[test]
    fn selectors_partition() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let top = s.lattice().top();
        let child = s.lattice().children(top)[0];
        s.label_traces(child, &TraceSelector::All, "good");
        let all = s.select(top, &TraceSelector::All).len();
        let unlabeled = s.select(top, &TraceSelector::Unlabeled).len();
        let good = s
            .select(top, &TraceSelector::WithLabel("good".into()))
            .len();
        assert_eq!(all, unlabeled + good);
        assert_eq!(
            s.select(top, &TraceSelector::WithLabel("nope".into()))
                .len(),
            0
        );
    }

    #[test]
    fn select_traces_expands_classes() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        let top = s.lattice().top();
        assert_eq!(s.select_traces(top, &TraceSelector::All).len(), 5);
    }

    #[test]
    fn show_fa_learns_from_selection() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        let top = s.lattice().top();
        let fa = s.show_fa(top, &TraceSelector::All);
        // The learned FA accepts the representatives it was trained on.
        for t in s.show_traces(top, &TraceSelector::All) {
            assert!(fa.accepts(t), "{}", t.display(&v));
        }
    }

    #[test]
    fn show_transitions_matches_intent() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        let top = s.lattice().top();
        // Top concept shares no transitions (its traces are diverse).
        assert!(s.show_transitions(top).is_empty());
        let text = s.transitions_text(s.lattice().bottom(), &v);
        assert!(!text.is_empty());
    }

    #[test]
    fn focus_and_merge_back() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let top = s.lattice().top();
        // Pre-label one class; the label must carry into the focus.
        let child = s.lattice().children(top)[0];
        s.label_traces(child, &TraceSelector::All, "good");
        let pclose = v.op("pclose");
        let seed = cable_fa::EventPat::on_var(pclose, cable_trace::Var(0));
        let pats = templates::distinct_event_pats(
            &s.traces()
                .iter()
                .map(|(_, t)| t.clone())
                .collect::<Vec<_>>(),
        );
        let focus_fa = templates::name_projection(&pats, cable_trace::Var(0));
        let _ = seed;
        let mut focus = s.focus(top, focus_fa);
        let carried = focus.session().labels().labels_in_use().len();
        assert_eq!(carried, 1, "pre-existing label carried over");
        // Label everything unlabeled in the focus, then merge back.
        let ftop = focus.session().lattice().top();
        focus
            .session_mut()
            .label_traces(ftop, &TraceSelector::Unlabeled, "bad");
        assert!(focus.session().all_labeled());
        s.merge_focus(focus);
        assert!(s.all_labeled());
    }

    #[test]
    fn dot_reflects_states() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let dot = s.to_dot("session");
        assert!(dot.contains("palegreen"));
        let top = s.lattice().top();
        s.label_traces(top, &TraceSelector::All, "good");
        let dot = s.to_dot("session");
        assert!(dot.contains("lightcoral"));
        assert!(!dot.contains("palegreen"));
    }

    #[test]
    fn a_pushed_duplicate_joins_its_class_and_inherits_its_label() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let n_classes = s.classes().len();
        s.label_traces(s.lattice().top(), &TraceSelector::All, "good");
        let dup = Trace::parse("popen(X) fread(X) pclose(X)", &mut v).unwrap();
        let [(id, new_class)] = s.push_traces(vec![dup])[..] else {
            panic!("one result per pushed trace");
        };
        assert!(!new_class);
        assert_eq!(s.classes().len(), n_classes);
        assert!(s.label_of_trace(id).is_some(), "inherits the class label");
        assert!(s.all_labeled());
    }

    #[test]
    fn a_pushed_new_class_extends_the_lattice() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        s.label_traces(s.lattice().top(), &TraceSelector::All, "good");
        // A genuinely new shape (still over known events, so the
        // unordered reference FA accepts it).
        let fresh = Trace::parse("popen(X) fwrite(X)", &mut v).unwrap();
        let [(id, new_class)] = s.push_traces(vec![fresh])[..] else {
            panic!("one result per pushed trace");
        };
        assert!(new_class);
        assert_eq!(s.label_of_trace(id), None, "new classes arrive unlabeled");
        assert!(!s.all_labeled());
        // The grown lattice equals a batch rebuild over the same traces:
        // same concepts in the same order, same covers.
        let rebuilt = CableSession::new(s.traces().clone(), s.reference_fa().clone());
        assert_eq!(s.lattice().len(), rebuilt.lattice().len());
        for id in rebuilt.lattice().ids() {
            assert_eq!(s.lattice().concept(id), rebuilt.lattice().concept(id));
            assert_eq!(s.lattice().children(id), rebuilt.lattice().children(id));
        }
        // Old labels survived.
        let labeled = (0..s.classes().len())
            .filter(|&c| s.labels().is_labeled(c))
            .count();
        assert_eq!(labeled, s.classes().len() - 1);
    }

    #[test]
    fn from_parts_rebuilds_an_equal_session() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        let rebuilt = CableSession::from_parts(
            s.traces().clone(),
            s.reference_fa().clone(),
            s.context().clone(),
            s.lattice().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.classes().len(), s.classes().len());
        assert_eq!(rebuilt.lattice().len(), s.lattice().len());
        assert_eq!(rebuilt.context().pair_count(), s.context().pair_count());
    }

    #[test]
    fn from_parts_rejects_mismatched_parts() {
        let mut v = Vocab::new();
        let s = stdio_session(&mut v);
        // A context with the wrong object count.
        let bad = Context::new(1, s.reference_fa().transition_count());
        assert!(CableSession::from_parts(
            s.traces().clone(),
            s.reference_fa().clone(),
            bad,
            s.lattice().clone(),
        )
        .is_err());
    }

    #[test]
    fn progress_reports_per_label_tallies() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let p = s.progress();
        assert_eq!(p.classes, 4);
        assert_eq!(p.traces, 5);
        assert_eq!(p.labeled_classes, 0);
        assert!(!p.is_complete());
        assert!(p.per_label.is_empty());
        let top = s.lattice().top();
        let child = s.lattice().children(top)[0];
        s.label_traces(child, &TraceSelector::All, "good");
        s.label_traces(top, &TraceSelector::Unlabeled, "bad");
        let p = s.progress();
        assert!(p.is_complete());
        let total_traces: usize = p.per_label.iter().map(|l| l.traces).sum();
        assert_eq!(total_traces, 5);
        let total_classes: usize = p.per_label.iter().map(|l| l.classes).sum();
        assert_eq!(total_classes, 4);
    }

    #[test]
    fn clear_labels_resets() {
        let mut v = Vocab::new();
        let mut s = stdio_session(&mut v);
        let top = s.lattice().top();
        s.label_traces(top, &TraceSelector::All, "good");
        assert!(s.all_labeled());
        s.clear_labels();
        assert!(!s.all_labeled());
        assert_eq!(s.labels().unlabeled_count(), 4);
    }

    #[test]
    fn scripts_parse_or_name_their_failing_line() {
        let commands = parse_script("; comment\n\n  label c1 with:good bad  \n", 2).unwrap();
        let with_good = TraceSelector::WithLabel("good".into());
        assert_eq!(commands, vec![(ConceptId(1), with_good, "bad".into())]);
        for (script, error) in [
            ("label c2 all x", "line 1: unknown concept \"c2\""),
            ("\nlabel 0 all x", "line 2: unknown concept \"0\""),
            (
                "label c0 any x",
                "line 1: selector must be all, unlabeled or with:NAME",
            ),
            (
                "label c0 all",
                "line 1: expected `label <concept> <selector> <name>`",
            ),
        ] {
            assert_eq!(parse_script(script, 2), Err(error.to_owned()));
        }
        assert_eq!("unlabeled".parse(), Ok(TraceSelector::Unlabeled));
    }
}
