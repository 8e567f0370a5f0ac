module Corpus = Vega_corpus.Corpus

type bundle = {
  spec : Vega_corpus.Spec.t;
  tpl : Template.t;
  analysis : Featsel.t;
  hints : Resolve.hints;
}

type split = Group_split | Backend_split

type prepared = {
  corpus : Corpus.t;
  ctx : Featsel.context;
  bundles : bundle list;
  quarantined : string list;
  prep_report : Vega_robust.Report.t;
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
  max_inst_per_column : int;
  split : split;
  split_seed : int;
  train_fraction : float;
}

let default_config =
  {
    train_cfg = Codebe.default_train_config;
    max_inst_per_column = 3;
    split = Group_split;
    split_seed = 13;
    train_fraction = 0.75;
  }

let test_config =
  {
    default_config with
    train_cfg = Codebe.tiny_train_config;
    max_inst_per_column = 2;
  }

let src_log = Logs.Src.create "vega.pipeline" ~doc:"VEGA pipeline"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* Pre-process one reference implementation into template inputs. *)
let impl_items (impl : Corpus.impl) =
  let lines =
    Preprocess.run
      (Preprocess.normalize_ifchains
         (Preprocess.inline_helpers impl.Corpus.fn impl.Corpus.helpers))
      ~helpers:impl.Corpus.helpers
  in
  lines

(* Per-implementation structural validation: an impl survives only when
   its target is registered and its flattened body leads with the
   function-definition line. Anything else is corpus corruption —
   recorded, and the impl dropped rather than aborting the run. *)
let validated_impls report fname (impls : Corpus.impl list) =
  let fail detail =
    Vega_robust.Report.record report ~stage:"prepare"
      (Vega_robust.Fault.Corpus_corruption { group = fname; detail });
    None
  in
  List.filter_map
    (fun (impl : Corpus.impl) ->
      let tgt = impl.Corpus.target in
      if Vega_target.Registry.find tgt = None then
        fail (Printf.sprintf "implementation for unregistered target %s" tgt)
      else
        match
          Vega_robust.Stage.protect ~report ~stage:"prepare" (fun () ->
              impl_items impl)
        with
        | Error _ -> None
        | Ok
            (Preprocess.Single ({ Preprocess.kind = "fundef"; _ } as sig_line)
            :: rest) ->
            Some (tgt, sig_line, rest)
        | Ok _ ->
            fail
              (Printf.sprintf
                 "%s implementation does not start with a function-definition \
                  line"
                 tgt))
    impls

let bundle_of_group report ctx (g : Corpus.group) =
  let fname = g.Corpus.spec.Vega_corpus.Spec.fname in
  match validated_impls report fname g.Corpus.impls with
  | [] ->
      if g.Corpus.impls <> [] then
        Vega_robust.Report.record report ~stage:"prepare"
          (Vega_robust.Fault.Corpus_corruption
             { group = fname; detail = "no valid implementation left" });
      None
  | per_target -> (
      match
        Vega_robust.Stage.protect ~report ~stage:"prepare" (fun () ->
            let impls = List.map (fun (t, _, items) -> (t, items)) per_target in
            let signature_lines = List.map (fun (t, s, _) -> (t, s)) per_target in
            let tpl =
              Template.build ~fname
                ~module_:g.Corpus.spec.Vega_corpus.Spec.module_ impls
                ~signature_lines
            in
            let analysis = Featsel.analyze ctx tpl in
            let hints = Resolve.collect_hints analysis tpl in
            { spec = g.Corpus.spec; tpl; analysis; hints })
      with
      | Ok b -> Some b
      | Error _ -> None)

let prepare ?report ?corpus () =
  let report =
    match report with Some r -> r | None -> Vega_robust.Report.create ()
  in
  let corpus = match corpus with Some c -> c | None -> Corpus.build () in
  let training_targets =
    List.map (fun (p : Vega_target.Profile.t) -> p.name) Vega_target.Registry.training
  in
  (* Quarantine: a training target whose description files are binary
     garbage is skipped — its catalog would poison feature selection for
     every group — instead of failing whole-corpus prep. Each corrupt
     file is recorded as a [Descfile_corruption] fault by the scan.
     Held-out targets are not scanned here: they stay registered, and
     generation against a corrupt held-out target degrades through the
     ladder instead. *)
  let quarantined, training_targets =
    List.partition
      (fun tgt ->
        Vega_robust.Inject.scan_vfs ~report corpus.Corpus.vfs ~target:tgt
        <> [])
      training_targets
  in
  if quarantined <> [] then
    Log.warn (fun m ->
        m "quarantined training targets: %s" (String.concat ", " quarantined));
  let corpus =
    if quarantined = [] then corpus
    else
      {
        corpus with
        Corpus.groups =
          List.map
            (fun (g : Corpus.group) ->
              {
                g with
                Corpus.impls =
                  List.filter
                    (fun (i : Corpus.impl) ->
                      not (List.mem i.Corpus.target quarantined))
                    g.Corpus.impls;
              })
            corpus.Corpus.groups;
      }
  in
  let ctx = Featsel.make_context corpus.Corpus.vfs ~targets:training_targets in
  (* register held-out targets so generation can read their files *)
  let ctx =
    List.fold_left
      (fun ctx (p : Vega_target.Profile.t) -> Featsel.add_target ctx p.name)
      ctx Vega_target.Registry.held_out
  in
  let bundles =
    List.filter_map
      (fun (g : Corpus.group) ->
        if g.Corpus.impls = [] then None else bundle_of_group report ctx g)
      corpus.Corpus.groups
  in
  Log.info (fun m -> m "prepared %d function templates" (List.length bundles));
  { corpus; ctx; bundles; quarantined; prep_report = report }

let bundle_for prep fname =
  List.find_opt (fun b -> b.spec.Vega_corpus.Spec.fname = fname) prep.bundles

(* hash-free deterministic pseudo-random assignment for splits *)
let in_train_fraction seed key fraction =
  let h = Hashtbl.hash (seed, key) land 0xFFFF in
  float_of_int h /. 65536.0 < fraction

let train cfg prep =
  (* one Featrep pass per bundle feeds both the model split and the
     retrieval index (it used to be recomputed per consumer) *)
  let train_pairs = ref [] and verify_pairs = ref [] and retr_pairs = ref [] in
  List.iter
    (fun b ->
      let fvs =
        Featrep.training_fvs b.analysis b.tpl
          ~max_inst_per_column:cfg.max_inst_per_column
      in
      List.iter
        (fun (fv : Featrep.fv) ->
          match fv.output with
          | Some output ->
              let key =
                match cfg.split with
                | Group_split ->
                    (* per function within the group *)
                    b.spec.Vega_corpus.Spec.fname ^ "/" ^ fv.target
                | Backend_split -> fv.target
              in
              let pair = (fv.input, output) in
              if in_train_fraction cfg.split_seed key cfg.train_fraction then begin
                train_pairs := pair :: !train_pairs;
                (* the retrieval baseline indexes the train side only:
                   indexing verification outputs would leak held-out
                   answers into the statistical-method comparison *)
                retr_pairs := (fv, output) :: !retr_pairs
              end
              else verify_pairs := pair :: !verify_pairs
          | None -> ())
        fvs)
    prep.bundles;
  let train_pairs = List.rev !train_pairs in
  let verify_pairs = List.rev !verify_pairs in
  Log.info (fun m ->
      m "training CodeBE on %d pairs (%d verification)"
        (List.length train_pairs) (List.length verify_pairs));
  let codebe = Codebe.train cfg.train_cfg train_pairs in
  let retrieval = Retrieval.build (List.rev !retr_pairs) in
  { prep; codebe; retrieval; train_pairs; verify_pairs }

let verification_exact_match t =
  (* cap for time: EM over at most 400 held-out pairs *)
  let pairs = List.filteri (fun i _ -> i < 400) t.verify_pairs in
  Codebe.exact_match t.codebe pairs

let model_decoder ?batch t (fv : Featrep.fv) = Codebe.infer ?batch t.codebe fv.input
let new_batcher t ~slots = Codebe.new_batcher t.codebe ~slots
let retrieval_decoder t = Retrieval.decode t.retrieval

(* Bundles are independent, so whole-backend generation fans out over a
   domain pool: every shared structure on the path is read-only at
   generation time (vfs, vocab, model weights, retrieval entries,
   pre-registered target catalogs), the autodiff tape is domain-local,
   and the report is mutex-guarded. The supervisor carries per-function
   mutable state, so each worker gets a fork whose stats the parent
   absorbs after the join. Results keep bundle order regardless of
   scheduling, so parallel output is bit-identical to sequential. *)
let with_worker_sups ?sup ~domains run =
  let subs =
    Array.init domains (fun w ->
        Option.map (Vega_robust.Supervisor.fork ~index:w) sup)
  in
  let results = run (fun w -> subs.(w)) in
  Option.iter
    (fun parent ->
      Array.iter
        (Option.iter (Vega_robust.Supervisor.absorb parent))
        subs)
    sup;
  results

let generate_backend ?fallback ?report ?sup ?(domains = 1) t ~target ~decoder =
  let gen sup b =
    Generate.run ?fallback ?report ?sup t.prep.ctx b.tpl b.analysis b.hints
      ~target ~decoder
  in
  if domains <= 1 then List.map (gen sup) t.prep.bundles
  else
    with_worker_sups ?sup ~domains (fun ctx ->
        Vega_util.Par.map_ctx ~domains ~ctx gen t.prep.bundles)

let generate_function ?fallback ?report ?sup t ~target ~decoder ~fname =
  Option.map
    (fun b ->
      Generate.run ?fallback ?report ?sup t.prep.ctx b.tpl b.analysis b.hints
        ~target ~decoder)
    (bundle_for t.prep fname)

(* ------------------------------------------------------------------ *)
(* Crash-safe durable generation: the write-ahead journal               *)

module J = Vega_robust.Journal

let fingerprint t ~target =
  (* ties a run directory to one prepared pipeline + target: same
     function set, same template shapes *)
  Vega_robust.Wire.checksum
    (String.concat "\n"
       (target
       :: List.map
            (fun b ->
              Printf.sprintf "%s/%d" b.spec.Vega_corpus.Spec.fname
                (List.length b.tpl.Template.columns))
            t.prep.bundles))

type durable_outcome = {
  d_funcs : Generate.gen_func list;
  d_resumed : int;
  d_generated : int;
  d_records : int;
  d_torn : bool;
}

let journal_path run_dir = Filename.concat run_dir "journal.log"

let stmt_of_gen fname (s : Generate.gen_stmt) =
  {
    J.j_fname = fname;
    j_col = s.Generate.g_col;
    j_line = s.Generate.g_line;
    j_inst = s.Generate.g_inst;
    j_score = s.Generate.g_score;
    j_tokens = s.Generate.g_tokens;
    j_shape_ok = s.Generate.g_shape_ok;
    j_level = s.Generate.g_level;
  }

let gen_of_stmt (s : J.stmt) =
  {
    Generate.g_col = s.J.j_col;
    g_line = s.J.j_line;
    g_inst = s.J.j_inst;
    g_score = s.J.j_score;
    g_tokens = s.J.j_tokens;
    g_shape_ok = s.J.j_shape_ok;
    g_level = s.J.j_level;
  }

let func_of_completed b target (c : J.completed) =
  {
    Generate.gf_fname = c.J.c_fname;
    gf_module = b.tpl.Template.module_;
    gf_target = target;
    gf_confidence = c.J.c_confidence;
    gf_stmts = List.map gen_of_stmt c.J.c_stmts;
  }

type journal = {
  writer : J.writer;
  restored : Generate.gen_func list;
  torn : bool;
  unsubscribe : unit -> unit;
}

let open_journal ?kill_at ~report ~resume ~run_dir t ~target =
  Vega_util.Fs.mkdir_p run_dir;
  let path = journal_path run_dir in
  let fp = fingerprint t ~target in
  let opened =
    if resume then begin
      let rc = J.read ~report ~path () in
      match J.replay rc.J.r_records with
      | Some (J.Header h), completed
        when h.version = J.version && h.target = target && h.fingerprint = fp
        ->
          (* compact the torn tail away so fresh appends extend the
             recovered prefix, not a half-written record *)
          if rc.J.r_torn then J.rewrite ~path rc.J.r_records;
          Ok (J.open_append ?kill_at ~path (), completed, rc.J.r_torn)
      | Some (J.Header _), _ ->
          Error
            "journal belongs to a different run (target or pipeline \
             fingerprint mismatch)"
      | _ -> Error "journal has no valid header; nothing to resume"
    end
    else if Sys.file_exists path then
      Error
        (Printf.sprintf "%s already exists; resume the run instead of starting \
                         a new one"
           path)
    else
      Ok
        ( J.create ?kill_at ~path
            (J.Header { version = J.version; target; fingerprint = fp }),
          [],
          false )
  in
  Result.map
    (fun (writer, completed, torn) ->
      (* faults are journaled ahead like statements *)
      let unsubscribe =
        Vega_robust.Report.subscribe report
          (fun (ev : Vega_robust.Report.event) ->
            J.append writer
              (J.Fault_ev
                 {
                   stage = ev.Vega_robust.Report.ev_stage;
                   fault = ev.Vega_robust.Report.ev_fault;
                   backtrace = ev.Vega_robust.Report.ev_backtrace;
                 }))
      in
      (* the fingerprint pins the function set, so every sealed
         function has its bundle *)
      let restored =
        List.filter_map
          (fun (c : J.completed) ->
            Option.map
              (fun b -> func_of_completed b target c)
              (bundle_for t.prep c.J.c_fname))
          completed
      in
      { writer; restored; torn; unsubscribe })
    opened

let close_journal j =
  j.unsubscribe ();
  J.close j.writer

let begin_func w fname =
  J.append w (J.Func_begin fname);
  fun s -> J.append w (J.Stmt (stmt_of_gen fname s))

let seal_func w fname (gf : Generate.gen_func) =
  J.append w
    (J.Func_end
       {
         fname;
         confidence = gf.Generate.gf_confidence;
         n_stmts = List.length gf.Generate.gf_stmts;
       })

let generate_backend_durable ?fallback ?report ?sup ?(resume = false) ?kill_at
    ?(domains = 1) ~run_dir t ~target ~decoder =
  let report =
    match report with Some r -> r | None -> Vega_robust.Report.create ()
  in
  match open_journal ?kill_at ~report ~resume ~run_dir t ~target with
  | Error _ as e -> e
  | Ok j ->
      let done_tbl = Hashtbl.create 64 in
      List.iter
        (fun (gf : Generate.gen_func) ->
          Hashtbl.replace done_tbl gf.Generate.gf_fname gf)
        j.restored;
      (* atomics: generation may fan out over domains; journal appends
         carry their own lock *)
      let resumed = Atomic.make 0 and generated = Atomic.make 0 in
      let gen_bundle sup b =
        let fname = b.spec.Vega_corpus.Spec.fname in
        match Hashtbl.find_opt done_tbl fname with
        | Some gf ->
            Atomic.incr resumed;
            gf
        | None ->
            let on_stmt = begin_func j.writer fname in
            let gf =
              Generate.run ?fallback ~report ?sup ~on_stmt t.prep.ctx b.tpl
                b.analysis b.hints ~target ~decoder
            in
            seal_func j.writer fname gf;
            Atomic.incr generated;
            gf
      in
      let funcs =
        Fun.protect
          ~finally:(fun () -> close_journal j)
          (fun () ->
            if domains <= 1 then List.map (gen_bundle sup) t.prep.bundles
            else
              with_worker_sups ?sup ~domains (fun ctx ->
                  Vega_util.Par.map_ctx ~domains ~ctx gen_bundle
                    t.prep.bundles))
      in
      Ok
        {
          d_funcs = funcs;
          d_resumed = Atomic.get resumed;
          d_generated = Atomic.get generated;
          d_records = J.written j.writer;
          d_torn = j.torn;
        }
