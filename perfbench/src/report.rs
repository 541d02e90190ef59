//! Result printing: `# `-prefixed info lines, then one JSON object as the
//! last line of standard output.

use std::fmt::Write as _;
use std::sync::Mutex;

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value, unit));
    }
}

/// Every info line printed so far, repeated in the trace file's header.
static INFO: Mutex<Vec<String>> = Mutex::new(Vec::new());

pub fn info(line: impl AsRef<str>) {
    println!("# {}", line.as_ref());
    INFO.lock().unwrap().push(line.as_ref().to_string());
}

pub fn info_lines() -> Vec<String> {
    INFO.lock().unwrap().clone()
}

/// Print the final JSON line. A metric that could not be measured (not a
/// finite number) is printed as -1 and makes the run incorrect, so a
/// broken measurement is never mistaken for a result.
pub fn emit(mut correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let v = if value.is_finite() {
            *value
        } else {
            info(format!(
                "metric {name} is not finite ({value}); run marked incorrect"
            ));
            correct = false;
            -1.0
        };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}
