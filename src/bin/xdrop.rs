//! `xdrop` — command-line front end to the alignment stack.
//!
//! ```text
//! xdrop align <a.fasta> <b.fasta> [--x N] [--protein] [--delta-b N]
//!             [--exact] [--traceback]
//! xdrop simulate --genome-len N [--coverage C] [--read-len L]
//!                [--error hifi|noisy|exact] [--seed S] --out reads.fa
//! xdrop assemble <reads.fasta> [--x N] [--k K] [--aligner KIND] [--out contigs.fa]
//! xdrop stats <seqs.fasta>
//! ```
//!
//! `align` aligns the first record of `a` against every record of
//! `b` with the paper's memory-restricted X-Drop (seed-free
//! semi-global extension from the sequence starts) and prints scores,
//! band widths and memory; `--traceback` adds the CIGAR of that same
//! alignment. `simulate` writes a synthetic long-read set; `assemble`
//! runs the ELBA-mini pipeline on a FASTA of reads; `stats` prints
//! per-file sequence statistics. An option a subcommand does not
//! take is an error (exit code 2).

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::exit;

use rand::rngs::StdRng;
use rand::SeedableRng;
use xdrop_ipu::core::prelude::*;
use xdrop_ipu::data::fasta;
use xdrop_ipu::data::gen::MutationProfile;
use xdrop_ipu::data::reads::{simulate_reads, LowComplexity, ReadSimParams};
use xdrop_ipu::pipelines::elba::{run_elba_from_workload, ElbaConfig};
use xdrop_ipu::pipelines::overlap::{detect_overlaps, OverlapConfig};

fn usage() -> ! {
    let aligners: Vec<&str> = AlignerKind::ALL.iter().map(|k| k.name()).collect();
    eprintln!(
        "usage:\n  xdrop align <a.fasta> <b.fasta> [--x N] [--protein] [--delta-b N] [--exact] [--traceback]\n  xdrop simulate --genome-len N [--coverage C] [--read-len L] [--error hifi|noisy|exact] [--seed S] --out reads.fa\n  xdrop assemble <reads.fasta> [--x N] [--k K] [--aligner {}] [--out contigs.fa]\n  xdrop stats <seqs.fasta>",
        aligners.join("|")
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

struct Opts {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

/// Splits `args` into positionals, `--name value` flags named in
/// `flag_names` and `--name` switches named in `switch_names`; any
/// other `--name` is a usage error naming it.
fn parse(args: &[String], flag_names: &[&str], switch_names: &[&str]) -> Opts {
    let mut o = Opts {
        positional: Vec::new(),
        flags: Default::default(),
        switches: Default::default(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if switch_names.contains(&name) {
                o.switches.insert(name.to_string());
            } else if flag_names.contains(&name) {
                let val = it.next().unwrap_or_else(|| usage());
                o.flags.insert(name.to_string(), val.clone());
            } else {
                eprintln!("error: unknown option --{name}");
                usage();
            }
        } else {
            o.positional.push(a.clone());
        }
    }
    o
}

fn read_fasta_file(path: &str) -> Vec<fasta::Record> {
    let f = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    fasta::read_fasta(BufReader::new(f))
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("align") => cmd_align(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("assemble") => cmd_assemble(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        _ => usage(),
    }
}

fn cmd_align(args: &[String]) {
    let o = parse(args, &["x", "delta-b"], &["protein", "traceback", "exact"]);
    if o.positional.len() != 2 {
        usage();
    }
    let x: i32 = o
        .flags
        .get("x")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(15);
    let delta_b: usize = o
        .flags
        .get("delta-b")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(256);
    let policy = if o.switches.contains("exact") {
        BandPolicy::Exact(delta_b)
    } else {
        BandPolicy::Grow(delta_b)
    };
    let req = AlignRequest::new(AlignerKind::XDrop2, x)
        .policy(policy)
        .traceback(o.switches.contains("traceback"));
    let a = read_fasta_file(&o.positional[0]);
    let b = read_fasta_file(&o.positional[1]);
    if a.is_empty() || b.is_empty() {
        fail("empty FASTA input");
    }
    if o.switches.contains("protein") {
        let scorer = Blosum62::pastis_default();
        align_records(Alphabet::Protein, &a[0], &b, &scorer, &req);
    } else {
        let scorer = MatchMismatch::dna_default();
        align_records(Alphabet::Dna, &a[0], &b, &scorer, &req);
    }
}

/// Aligns `query` against every record of `targets` with one
/// [`Aligner`] and prints one line per target.
fn align_records<S: Scorer>(
    alphabet: Alphabet,
    query: &fasta::Record,
    targets: &[fasta::Record],
    scorer: &S,
    req: &AlignRequest,
) {
    let enc = |r: &fasta::Record| {
        alphabet
            .encode(&r.seq)
            .unwrap_or_else(|e| fail(&format!("record {}: {e}", r.id)))
    };
    let h = enc(query);
    println!("query: {} ({} symbols)", query.id, h.len());
    let mut aligner = Aligner::new();
    for rec in targets {
        let v = enc(rec);
        let out = aligner
            .align(&h, &v, scorer, req)
            .unwrap_or_else(|e| fail(&format!("{e}")));
        let (r, st) = (out.output.result, out.output.stats);
        print!(
            "{:<24} score {:>8}  end ({:>6}, {:>6})  δ_w {:>5}  mem {:>7} B",
            rec.id, r.best_score, r.end_h, r.end_v, st.delta_w, st.work_bytes
        );
        if let Some(cigar) = out.cigar() {
            print!("  cigar {cigar}");
        }
        println!();
    }
}

fn cmd_simulate(args: &[String]) {
    let o = parse(
        args,
        &["genome-len", "coverage", "read-len", "error", "seed", "out"],
        &[],
    );
    let genome_len: usize = o
        .flags
        .get("genome-len")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or_else(|| fail("--genome-len required"));
    let coverage: f64 = o
        .flags
        .get("coverage")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(12.0);
    let read_len: f64 = o
        .flags
        .get("read-len")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(8_000.0);
    let seed: u64 = o
        .flags
        .get("seed")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);
    let errors = match o.flags.get("error").map(String::as_str) {
        None | Some("hifi") => MutationProfile::hifi(),
        Some("noisy") => MutationProfile::noisy_long_read(0.1),
        Some("exact") => MutationProfile::exact(),
        Some(other) => fail(&format!("unknown error profile {other}")),
    };
    let out_path = o.flags.get("out").unwrap_or_else(|| fail("--out required"));
    let p = ReadSimParams {
        genome_len,
        coverage,
        read_len_mean: read_len,
        read_len_sigma: 0.35,
        min_read_len: (read_len / 10.0) as usize,
        max_read_len: (read_len * 4.0) as usize,
        errors,
        min_overlap: (read_len / 4.0) as usize,
        seed_k: 17,
        low_complexity: Some(LowComplexity::genomic()),
        false_pair_rate: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = simulate_reads(&mut rng, &p);
    let records: Vec<fasta::Record> = sim
        .reads
        .iter()
        .enumerate()
        .map(|(i, r)| fasta::Record {
            id: format!(
                "read{} pos={}..{}",
                i, sim.intervals[i].0, sim.intervals[i].1
            ),
            seq: Alphabet::Dna.decode(r),
        })
        .collect();
    let f = File::create(out_path).unwrap_or_else(|e| fail(&format!("cannot write: {e}")));
    let mut w = BufWriter::new(f);
    fasta::write_fasta(&mut w, &records).unwrap_or_else(|e| fail(&format!("write: {e}")));
    println!(
        "simulated {} reads from a {} bp genome at {:.1}x → {}",
        records.len(),
        genome_len,
        coverage,
        out_path
    );
}

fn cmd_assemble(args: &[String]) {
    let o = parse(args, &["x", "k", "aligner", "out"], &[]);
    if o.positional.len() != 1 {
        usage();
    }
    let x: i32 = o
        .flags
        .get("x")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(15);
    let k: usize = o
        .flags
        .get("k")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(17);
    let aligner = o
        .flags
        .get("aligner")
        .map(|v| AlignerKind::parse(v).unwrap_or_else(|| usage()))
        .unwrap_or(AlignerKind::XDrop2);
    let overlap = OverlapConfig::elba(k);
    if let Err(e) = overlap.validate(Alphabet::Dna) {
        fail(&format!("--k: {e}"));
    }
    let records = read_fasta_file(&o.positional[0]);
    let set =
        fasta::records_to_seqset(&records, Alphabet::Dna).unwrap_or_else(|e| fail(&format!("{e}")));
    println!("{} reads loaded", set.len());
    let workload = detect_overlaps(&set, &overlap);
    println!("{} overlap candidates", workload.comparisons.len());
    let cfg = ElbaConfig {
        read_sim: ReadSimParams {
            genome_len: 0,
            coverage: 0.0,
            read_len_mean: 0.0,
            read_len_sigma: 0.0,
            min_read_len: 0,
            max_read_len: 0,
            errors: MutationProfile::exact(),
            min_overlap: 0,
            seed_k: k,
            low_complexity: None,
            false_pair_rate: 0.0,
        },
        overlap,
        x,
        aligner,
        min_identity: 0.7,
        fuzz: 60,
    };
    // The assembly stages don't need the simulation record; give an
    // empty one.
    let sim = xdrop_ipu::data::reads::SimulatedReads {
        genome: Vec::new(),
        reads: Vec::new(),
        intervals: Vec::new(),
        maps: Vec::new(),
    };
    let run = run_elba_from_workload(sim, workload, &cfg);
    println!(
        "{} overlaps accepted, {} string-graph edges, {} contigs, longest {}",
        run.accepted.len(),
        run.edges.len(),
        run.contigs.len(),
        run.longest_contig()
    );
    if let Some(out_path) = o.flags.get("out") {
        let recs: Vec<fasta::Record> = run
            .contigs
            .iter()
            .enumerate()
            .map(|(i, c)| fasta::Record {
                id: format!("contig{} len={}", i, c.len()),
                seq: Alphabet::Dna.decode(c),
            })
            .collect();
        let f = File::create(out_path).unwrap_or_else(|e| fail(&format!("cannot write: {e}")));
        let mut w = BufWriter::new(f);
        fasta::write_fasta(&mut w, &recs).unwrap_or_else(|e| fail(&format!("write: {e}")));
        println!("contigs → {out_path}");
    }
}

fn cmd_stats(args: &[String]) {
    let o = parse(args, &[], &[]);
    if o.positional.len() != 1 {
        usage();
    }
    let records = read_fasta_file(&o.positional[0]);
    let mut lens: Vec<usize> = records.iter().map(|r| r.seq.len()).collect();
    lens.sort_unstable();
    let total: usize = lens.iter().sum();
    let pct = |p: f64| lens[((lens.len() - 1) as f64 * p) as usize];
    println!("records      {}", lens.len());
    println!("total bases  {total}");
    if !lens.is_empty() {
        println!(
            "min/median/max  {} / {} / {}",
            lens[0],
            pct(0.5),
            lens[lens.len() - 1]
        );
        println!("p10/p90         {} / {}", pct(0.1), pct(0.9));
        println!("mean            {:.1}", total as f64 / lens.len() as f64);
        // N50.
        let mut acc = 0usize;
        for &l in lens.iter().rev() {
            acc += l;
            if acc * 2 >= total {
                println!("N50             {l}");
                break;
            }
        }
    }
}
