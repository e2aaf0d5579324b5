//! The binaries' one flag reader.

use std::str::FromStr;

/// A command line read argument by argument; a flag's missing or
/// unparsable value goes to `die` as `"<flag> needs <what>"`.
pub struct Args<'a> {
    args: &'a [String],
    at: usize,
    die: fn(&str) -> !,
}

impl<'a> Args<'a> {
    /// Read `args`, refusing through `die`.
    pub fn new(args: &'a [String], die: fn(&str) -> !) -> Self {
        Args { args, at: 0, die }
    }

    /// The arguments up to the next flag.
    pub fn values(&mut self) -> Vec<&'a str> {
        let rest = &self.args[self.at..];
        let n = rest.iter().take_while(|a| !a.starts_with("--")).count();
        self.at += n;
        rest[..n].iter().map(String::as_str).collect()
    }

    /// The value after the flag just read, parsed.
    pub fn value<T: FromStr>(&mut self, what: &str) -> T {
        let flag = self.at.checked_sub(1).map_or("", |i| self.args[i].as_str());
        match self.next().and_then(|s| s.parse().ok()) {
            Some(v) => v,
            None => (self.die)(&format!("{flag} needs {what}")),
        }
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.at)?;
        self.at += 1;
        Some(arg)
    }
}
