(* Host and configuration metadata recorded with every result, so no
   number is read without the configuration it was measured under. *)

module J = Trace.Json

let oclcu_env () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.length kv > 6 && String.sub kv 0 6 = "OCLCU_" ->
        Some (String.sub kv 0 i, J.Str (String.sub kv (i + 1) (String.length kv - i - 1)))
      | _ -> None)
  |> List.sort compare

(* Digest of the program's sources (every file under lib/ and bin/), so a
   result names the code it measured even in a checkout without git. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p else [ p ])
  in
  match List.concat_map files [ "lib"; "bin" ] with
  | exception Sys_error _ -> "unknown"
  | paths ->
    List.map
      (fun p -> p ^ "\000" ^ In_channel.with_open_bin p In_channel.input_all)
      paths
    |> String.concat "\000" |> Digest.string |> Digest.to_hex

let collect ~workload ~seed ~seconds ~trace ~git_commit =
  J.Obj
    [ ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Int seconds);
      ("trace", J.Bool trace);
      ("git_commit", J.Str git_commit);
      ("source_digest", J.Str (source_digest ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("domains", J.Int !Gpusim.Exec.domains);
      ("engine",
       J.Str
         (match !Gpusim.Exec.engine with
          | Gpusim.Exec.Scalar -> "scalar"
          | Gpusim.Exec.Lockstep -> "lockstep"));
      ("backend",
       J.Str
         (match !Gpusim.Exec.backend with
          | Gpusim.Exec.Compiled -> "compiled"
          | Gpusim.Exec.Interp -> "interp"));
      ("ir_passes", J.Str (Ir.Pipeline.signature !Ir.Pipeline.selected));
      ("lockstep_fusion", J.Bool !Gpusim.Lockstep.fusion);
      ("attribute", J.Bool !Gpusim.Exec.attribute);
      ("oclcu_env", J.Obj (oclcu_env ()));
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("os_type", J.Str Sys.os_type);
      ("clock", J.Str "CLOCK_MONOTONIC via bechamel.monotonic_clock") ]

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l ->
        (match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
         | Some kb -> float_of_int kb /. 1024.0
         | None -> scan ())
    in
    scan ()
