(* pass1-eval: pass@1 evaluation of a held-out target
   ([Metrics.evaluate_target]) on a seeded draw of the regression suite.
   Regression.pass1 (backend + sim) dominates; the decoder is a small
   share, lint and absint a tiny one. *)

module P = Vega.Pipeline
module G = Vega.Generate
module R = Vega_eval.Regression
module Pr = Vega_ir.Programs
open Bx

let target = "XCore"

(* relax_stress costs about as much as all other cases together. It is
   in every draw and runs first: the suite stops at a function's first
   failing case, so with the heavy case last the work would swing with
   which light cases a draw happens to contain. *)
let heavy = [ "relax_stress" ]

(* Light cases per draw, from the run length: three for every five
   seconds, so a 20 s run evaluates 1 + 12 of the 20 cases. *)
let light_count ~seconds =
  let n_light = List.length R.default_cases - List.length heavy in
  max 1 (min n_light (int_of_float (0.6 *. seconds)))

let draw rng ~seconds =
  let is_heavy (c : Pr.case) = List.mem c.Pr.name heavy in
  let light = Array.of_list (List.filter (fun c -> not (is_heavy c)) R.default_cases) in
  Vega_util.Rng.shuffle rng light;
  let picked = Array.to_list (Array.sub light 0 (light_count ~seconds)) in
  List.filter is_heavy R.default_cases
  @ List.filter (fun c -> List.memq c picked) R.default_cases

let case_bits cases =
  List.fold_left
    (fun acc (c : Pr.case) ->
      let rec index i = function
        | [] -> invalid_arg ("unpinned regression case " ^ c.Pr.name)
        | n :: _ when n = c.Pr.name -> i
        | _ :: rest -> index (i + 1) rest
      in
      acc lor (1 lsl index 0 Pins.pass1_cases))
    0 cases

(* The pinned verdict of [fname] on [cases]: pass@1 holds exactly when
   every drawn case passes on its own. *)
let expected ~bits fname =
  match List.assoc_opt fname Pins.pass1_masks with
  | Some mask -> Some (mask land bits = bits)
  | None -> None

let mismatches ~bits verdicts =
  List.length (List.filter (fun (f, pass) -> expected ~bits f <> Some pass) verdicts)
  + abs (List.length Pins.pass1_masks - List.length verdicts)

(* Generate → lint → absint → pass@1, one span each, over the functions
   [evaluate_target] evaluates; returns (fname, pass) in bundle order. *)
let traced_verdicts (t : P.t) ~decoder ~cases =
  let p = profile target in
  let vfs = t.P.prep.P.corpus.Vega_corpus.Corpus.vfs in
  let decoder fv = Trace.span "decode" (fun () -> decoder fv) in
  let reference =
    Trace.span "eval.refart" (fun () -> R.reference_artifacts vfs p ~cases ())
  in
  let tab = Vega_analysis.Lint.symtab vfs p in
  List.concat
    (List.mapi
       (fun i (b : P.bundle) ->
         let spec = b.P.spec in
         if not (spec.Vega_corpus.Spec.applies p) then []
         else begin
           let fname = spec.Vega_corpus.Spec.fname in
           let gf =
             Trace.span ~rid:i "generate.run" (fun () ->
                 G.run t.P.prep.P.ctx b.P.tpl b.P.analysis b.P.hints
                   ~target:p.Vega_target.Profile.name ~decoder)
           in
           ignore
             (Trace.span ~rid:i "lint" (fun () ->
                  Vega_analysis.Lint.lint_generated tab b.P.tpl gf));
           let source = G.source_of gf in
           let parsed = Vega_srclang.Parser.parse_function_opt source in
           (match parsed with
           | Error _ -> ()
           | Ok _ ->
               ignore
                 (Trace.span ~rid:i "absint" (fun () ->
                      Vega_absint.Verify.verify_source
                        ?reference:(Vega_corpus.Corpus.reference_inlined spec p)
                        ~fname source)));
           let pass =
             match parsed with
             | Error _ -> false
             | Ok f ->
                 Trace.span ~rid:i "eval.pass1" (fun () ->
                     R.pass1 vfs p ~reference ~fname ~replacement:(Some f) ~cases ())
                 = Ok ()
           in
           [ (fname, pass) ]
         end)
       t.P.prep.P.bundles)

type call = {
  c_fns : int;
  c_secs : float;
  c_fn_lat : float list;
  c_verdicts : (string * bool) list;
  c_cases : Pr.case list;
}

let evaluate (t : P.t) ~decoder ~cases =
  let clock = Fn_clock.create () in
  settle_heap ();
  let te, dt =
    time (fun () ->
        Vega_eval.Metrics.evaluate_target t ~decoder:(Fn_clock.wrap clock decoder)
          (profile target) ~cases ())
  in
  let fns = te.Vega_eval.Metrics.te_fns in
  {
    c_fns = List.length fns;
    c_secs = dt;
    c_fn_lat = Fn_clock.finish clock ~at:(now ());
    c_verdicts =
      List.map
        (fun (fe : Vega_eval.Metrics.fn_eval) ->
          (fe.Vega_eval.Metrics.fe_fname, fe.Vega_eval.Metrics.fe_pass))
        fns;
    c_cases = cases;
  }

let case_names cases = String.concat "," (List.map (fun (c : Pr.case) -> c.Pr.name) cases)

let call_note tag c =
  let bits = case_bits c.c_cases in
  Printf.sprintf "%s: %d functions in %.3f s, %d pass, %d verdict mismatches; cases %s" tag
    c.c_fns c.c_secs
    (List.length (List.filter snd c.c_verdicts))
    (mismatches ~bits c.c_verdicts) (case_names c.c_cases)

let run ~seconds ~seed ~trace =
  let s = setup () in
  let t = s.pipeline in
  let decoder = P.retrieval_decoder t in
  let rng = Vega_util.Rng.create seed in
  let window = if trace then seconds /. 2.0 else seconds in
  let gc0 = gc_mark () in
  let t0 = now () in
  let rec loop acc last =
    if acc <> [] && not (within_window ~t0 ~seconds:window ~last) then List.rev acc
    else
      let c = evaluate t ~decoder ~cases:(draw rng ~seconds) in
      loop (c :: acc) c.c_secs
  in
  let calls = loop [] 0.0 in
  let gcm = gc_metrics gc0 in
  let fns = List.fold_left (fun n c -> n + c.c_fns) 0 calls in
  let secs = sum (List.map (fun c -> c.c_secs) calls) in
  let bad =
    List.fold_left (fun n c -> n + mismatches ~bits:(case_bits c.c_cases) c.c_verdicts) 0 calls
  in
  let rate = ratio (float_of_int fns) secs in
  let base =
    {
      r_attempted = fns;
      r_failed = bad;
      r_e2e =
        e2e_metrics ~work_per_s:rate ~setup_s:s.setup_s
          (List.concat_map (fun c -> c.c_fn_lat) calls);
      r_layer = [];
      r_notes =
        Printf.sprintf "target %s, %d of %d cases per draw" target
          (List.length heavy + light_count ~seconds)
          (List.length R.default_cases)
        :: List.map (call_note "untraced") calls;
    }
  in
  if not trace then base
  else begin
    (* the traced composition re-runs the last untraced draw, so its
       verdicts are compared with those [evaluate_target] produced *)
    let last = List.nth calls (List.length calls - 1) in
    let cases = last.c_cases in
    let path = Filename.concat (fresh_dir "trace") "spans.tsv" in
    settle_heap ();
    let verdicts, tsecs =
      Trace.section ~path (fun () -> time (fun () -> traced_verdicts t ~decoder ~cases))
    in
    let sm = Trace.report path in
    let same = verdicts = last.c_verdicts in
    let n_pass1 = Trace.count sm "eval.pass1" in
    let layer =
      [
        m "eval_fns_per_s" "1/s" rate;
        m "retrieval.calls" "count" (float_of_int (Trace.count sm "decode"));
        m "retrieval.busy_s" "s" (Trace.busy sm "decode");
        m "retrieval.us_per_call" "us"
          (1e6 *. ratio (Trace.busy sm "decode") (float_of_int (Trace.count sm "decode")));
        m "retrieval.wall_share" "share" (ratio (Trace.busy sm "decode") sm.Trace.wall_s);
        m "generate.self_s" "s" (Trace.self sm "generate.run");
        m "eval.pass1.calls" "count" (float_of_int n_pass1);
        m "eval.pass1.busy_s" "s" (Trace.busy sm "eval.pass1");
        m "eval.pass1.wall_share" "share" (ratio (Trace.busy sm "eval.pass1") sm.Trace.wall_s);
        m "eval.refart_s" "s" (Trace.busy sm "eval.refart");
        m "eval.pass_share" "share"
          (ratio
             (float_of_int (List.length (List.filter snd verdicts)))
             (float_of_int (List.length verdicts)));
        m "lint.busy_s" "s" (Trace.busy sm "lint");
        m "absint.busy_s" "s" (Trace.busy sm "absint");
        m "failed_share" "share"
          (ratio (float_of_int (bad + if same then 0 else 1)) (float_of_int (fns + 1)));
      ]
      @ trace_metrics sm ~overhead_pct:((100.0 *. (ratio tsecs (float_of_int (List.length verdicts))
                     /. ratio last.c_secs (float_of_int last.c_fns) -. 1.0)))
      @ setup_metrics s @ gcm
    in
    {
      r_attempted = fns + 1;
      r_failed = (bad + if same then 0 else 1);
      r_e2e = base.r_e2e;
      r_layer = layer;
      r_notes =
        base.r_notes
        @ [
            Printf.sprintf "traced: %d functions in %.3f s; verdict vector %s the untraced one"
              (List.length verdicts) tsecs
              (if same then "reproduces" else "DIFFERS FROM");
          ];
    }
  end
