(** File-system helpers shared by the run-directory and cache layers. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode 0o755). An empty
    path, an existing directory and a concurrent creation are all
    no-ops. *)
