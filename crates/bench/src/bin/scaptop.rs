#![forbid(unsafe_code)]

//! scaptop — a `top`-style dashboard. It captures nothing: producers
//! publish OpenMetrics expositions, and scaptop renders one frame per
//! exposition, through [`scap_bench::render::Dashboard`], each panel
//! whose families are present. A malformed exposition exits 2 naming
//! the bad line; a stream that stops short of its trace, or ends on a
//! broken conservation identity, exits 1.
//!
//! ```text
//! scapcat --stats-interval 2000 [--shards 4 --storm] t.pcap 2>&1 >/dev/null | scaptop -
//! scaptop saved-expositions.txt
//! scaptop --scapd /tmp/ctl    # each new `metrics` until scapd's done marker
//! ```
//!
//! On a TTY each frame repaints in place; on a pipe frames follow one
//! another, `----`-separated. `--scapd` gives up after
//! [`scap_bench::render::SCAPD_PATIENCE`] without a new exposition.

use scap_bench::render::{scapd_gave_up, Dashboard, Frame};
use std::io::BufRead;
use std::path::Path;
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("scaptop: {msg}");
    std::process::exit(2);
}

/// Render an exposition as one frame, or exit 2 naming its bad line
/// (`at` says where the exposition starts).
fn render(dash: &mut Dashboard, frame: &mut Frame, text: &str, at: &str) {
    if let Err(e) = dash.frame(text, frame.begin()) {
        die(&format!("the exposition at {at} is not valid: {e}"));
    }
    frame.flush();
}

/// `scaptop FILE|-`: one frame per exposition in the stream.
fn stream(src: &str) -> ! {
    let input: Box<dyn BufRead> = if src == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let f =
            std::fs::File::open(src).unwrap_or_else(|e| die(&format!("cannot open {src}: {e}")));
        Box::new(std::io::BufReader::new(f))
    };
    let (mut dash, mut frame) = (Dashboard::default(), Frame::default());
    let (mut text, mut start) = (String::new(), 1);
    for (no, line) in input.lines().enumerate() {
        let line = line.unwrap_or_else(|e| die(&format!("read error: {e}")));
        text.push_str(&line);
        text.push('\n');
        if line == "# EOF" {
            render(&mut dash, &mut frame, &text, &format!("{src} line {start}"));
            (text, start) = (String::new(), no + 2);
        }
    }
    if !text.is_empty() {
        // A tail without `# EOF`: the validator refuses it.
        render(&mut dash, &mut frame, &text, &format!("{src} line {start}"));
    }
    let closing = dash.closing();
    match &closing {
        Ok(line) => println!("\n{line}"),
        Err(e) => eprintln!("scaptop: {e}"),
    }
    std::process::exit(i32::from(closing.is_err()));
}

/// `scaptop --scapd DIR`: a frame per new `metrics` exposition until the
/// daemon's done marker.
fn scapd(dir: &str) -> ! {
    let metrics = Path::new(dir).join("metrics");
    let done_marker = Path::new(dir).join("scapd-done");
    let (mut dash, mut frame) = (Dashboard::default(), Frame::default());
    let (mut last, mut last_new) = (String::new(), Instant::now());
    loop {
        // The marker is read first: `metrics` read after it is final.
        let done = done_marker.exists();
        match std::fs::read_to_string(&metrics) {
            Ok(text) if text != last => {
                render(&mut dash, &mut frame, &text, &metrics.display().to_string());
                (last, last_new) = (text, Instant::now());
            }
            Err(e) if done => die(&format!("cannot read {}: {e}", metrics.display())),
            _ => {}
        }
        if done {
            let verdict = std::fs::read_to_string(&done_marker).unwrap_or_default();
            println!("\nscapd panel complete | daemon says: {}", verdict.trim());
            std::process::exit(i32::from(!verdict.starts_with("ok")));
        }
        if scapd_gave_up(last_new.elapsed()) {
            die(&format!(
                "no new exposition in {} for a minute (is scapd running?)",
                metrics.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--scapd", dir] => scapd(dir),
        ["-h" | "--help"] => {
            eprintln!("usage: scaptop FILE|-  |  scaptop --scapd DIR");
            std::process::exit(0);
        }
        [src] if src == "-" || !src.starts_with('-') => stream(src),
        _ => die("usage: scaptop FILE|-  |  scaptop --scapd DIR"),
    }
}
