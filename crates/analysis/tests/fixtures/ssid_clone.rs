//! R5 fixture — string-SSID clones in a hot-path crate's library code.

pub fn harvest(probe_ssid: &str, log: &mut Vec<String>) {
    log.push(probe_ssid.to_string());
    let copy = probe_ssid.clone();
    let _ = copy;
}

pub struct Probe {
    pub ssid: String,
}

pub fn mimic(probe: &Probe) -> String {
    probe.ssid.clone()
}

pub fn justified(probe: &Probe) -> String {
    probe.ssid.clone() // ch-lint: allow(ssid-clone) — justified copy off the hot path
}

pub fn resolved_at_the_edge(names: &[String], idx: usize) -> String {
    // The sanctioned pattern: materialize from an id via resolve(); the
    // receiver of `.clone()` is a call result, not an SSID-named value.
    names.get(idx).unwrap_or(&String::new()).clone()
}

pub fn other_clones_are_fine(weights: &Vec<f64>) -> Vec<f64> {
    weights.clone()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_clone_ssids() {
        let ssid = String::from("CSL");
        let _ = ssid.clone();
    }
}
