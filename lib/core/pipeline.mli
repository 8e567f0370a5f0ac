(** End-to-end VEGA pipeline (Fig. 5): corpus pre-processing, Code-Feature
    Mapping (templatization, feature selection, feature representation),
    Model Creation (CodeBE fine-tuning), and Target-Specific Code
    Generation for held-out targets. *)

type bundle = {
  spec : Vega_corpus.Spec.t;
  tpl : Template.t;
  analysis : Featsel.t;
  hints : Resolve.hints;
}

type split = Group_split | Backend_split
(** Training/verification split policy of Sec. 4.1.2: by function within
    each group (default, 75/25) or by whole backend (the ablation that
    costs 11-26% accuracy). *)

type prepared = {
  corpus : Vega_corpus.Corpus.t;
  ctx : Featsel.context;
  bundles : bundle list;
  quarantined : string list;
      (** training targets skipped because their description files are
          corrupt (one [Descfile_corruption] fault per file in
          [prep_report]); their reference implementations are dropped
          too. Held-out targets are never quarantined — generation
          against them degrades through the ladder instead. *)
  prep_report : Vega_robust.Report.t;
      (** corpus-corruption and stage faults observed while preparing;
          empty on a healthy corpus *)
}

type t = {
  prep : prepared;
  codebe : Codebe.t;
  retrieval : Retrieval.t;
  train_pairs : (string list * string list) list;
  verify_pairs : (string list * string list) list;
}

type config = {
  train_cfg : Codebe.train_config;
  max_inst_per_column : int;  (** training subsample of repeated arms *)
  split : split;
  split_seed : int;
  train_fraction : float;  (** 0.75 in the paper *)
}

val default_config : config
val test_config : config
(** Tiny settings for unit/integration tests. *)

val prepare :
  ?report:Vega_robust.Report.t -> ?corpus:Vega_corpus.Corpus.t -> unit -> prepared
(** Stage 1 (Code-Feature Mapping) over the training targets; held-out
    target catalogs are registered for later generation. Corrupted
    implementations (unregistered target, missing leading
    function-definition line, pre-processing crash) are recorded in
    [report] and dropped per-impl — a group is skipped only when no valid
    implementation remains; the run itself never aborts. *)

val bundle_for : prepared -> string -> bundle option
(** Lookup by interface-function name. *)

val train : config -> prepared -> t
(** Stage 2 (Model Creation): build FVs once per bundle, split, fine-tune
    CodeBE, and fit the retrieval baseline on the {e train} side of the
    split only — verification outputs never enter the index. *)

val verification_exact_match : t -> float
(** Exact Match on the verification set (paper: 99.03%). *)

val model_decoder : ?batch:Codebe.batcher -> t -> Generate.decoder
(** With [?batch], concurrent decoder calls (e.g. from the serve worker
    pool) coalesce into shared batched decode steps; per-request
    results are unchanged. *)

val new_batcher : t -> slots:int -> Codebe.batcher option
(** Decode batcher over this pipeline's model; [None] for the RNN
    architecture. *)

val retrieval_decoder : t -> Generate.decoder

val generate_backend :
  ?fallback:Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  ?domains:int ->
  t -> target:string -> decoder:Generate.decoder -> Generate.gen_func list
(** Stage 3: generate every interface function for a new target.
    [fallback], [report] and [sup] (deadlines, backoff, circuit breaker)
    thread through to {!Generate.run}'s degradation ladder.

    [domains] (default 1) fans the independent functions out over a
    fixed-size domain pool. Results stay in bundle order and are
    bit-identical to the sequential path; [sup] is forked per worker
    (stats folded back after the join) and [report] recording is
    mutex-guarded. *)

val generate_function :
  ?fallback:Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  t -> target:string -> decoder:Generate.decoder -> fname:string ->
  Generate.gen_func option

(** {1 Crash-safe durable generation}

    A durable run write-ahead-journals every statement before acting on
    it; after a crash it resumes from the journal and produces output
    bit-identical to an uninterrupted run. Journal replay is the only
    record of progress: a function counts as done exactly when its
    statement trail is sealed by a matching [Func_end]. *)

val fingerprint : t -> target:string -> string
(** Checksum over the target name and the prepared function set; stored
    in the journal header so resume refuses a mismatched run dir. *)

type durable_outcome = {
  d_funcs : Generate.gen_func list;  (** bundle order, like
      {!generate_backend} *)
  d_resumed : int;  (** functions restored from the journal *)
  d_generated : int;  (** functions generated (or regenerated) this run *)
  d_records : int;  (** journal records appended this run *)
  d_torn : bool;  (** a torn trailing record was recovered on resume *)
}

val journal_path : string -> string
(** Where a run directory keeps its journal. *)

type journal = {
  writer : Vega_robust.Journal.writer;
  restored : Generate.gen_func list;
      (** functions sealed in the journal, in completion order *)
  torn : bool;  (** a torn trailing record was recovered *)
  unsubscribe : unit -> unit;  (** stop journaling report faults *)
}
(** An open run-directory journal. *)

val open_journal :
  ?kill_at:int ->
  report:Vega_robust.Report.t ->
  resume:bool ->
  run_dir:string ->
  t -> target:string ->
  (journal, string) result
(** Open the journal of [run_dir] (created if missing) for one durable
    run — the only entry point, shared with the serving layer
    ([vega.serve]), which journals per request instead of per backend.
    A fresh run refuses an existing journal and starts one holding only
    the header. [resume:true] reads and replays the journal, refuses a
    header for another target or pipeline {!fingerprint}, compacts a
    torn tail away and reopens it for appending. Either way every fault
    later recorded in [report] is journaled ahead like a statement,
    until {!close_journal}. [kill_at] is passed to the writer
    ({!Vega_robust.Journal.Killed}). [Error] explains why the run
    directory cannot be used. *)

val close_journal : journal -> unit
(** Stop journaling faults and close the writer. *)

val begin_func :
  Vega_robust.Journal.writer -> string -> Generate.gen_stmt -> unit
(** [begin_func w fname] journals the start of [fname]'s generation and
    returns the per-statement hook ([Generate]'s [on_stmt]) that
    journals each of its statements. *)

val seal_func : Vega_robust.Journal.writer -> string -> Generate.gen_func -> unit
(** Journal the seal that marks the function complete on replay. *)

val generate_backend_durable :
  ?fallback:Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  ?resume:bool ->
  ?kill_at:int ->
  ?domains:int ->
  run_dir:string ->
  t -> target:string -> decoder:Generate.decoder ->
  (durable_outcome, string) result
(** Whole-backend generation under the write-ahead journal in
    [run_dir] ({!open_journal}). [resume:true] restores completed
    functions and regenerates only the rest. Functions whose statement
    trail was cut mid-write regenerate from scratch, so the final
    output is bit-identical to an uninterrupted run.

    [kill_at] arms the simulated hard crash ({!Vega_robust.Journal.Killed}
    escapes after that many durable records — the [faultcheck] harness).
    Faults during generation never produce [Error] — they degrade
    statements through the ladder as usual and are journaled ahead like
    everything else.

    [domains] parallelizes generation like {!generate_backend}: journal
    appends are mutex-guarded and replay keys statements by function
    name, so interleaved trails from concurrent functions resume
    correctly, and a [kill_at] crash in any domain stops every worker
    (the writer stays dead). [d_funcs] keeps bundle order either way. *)
