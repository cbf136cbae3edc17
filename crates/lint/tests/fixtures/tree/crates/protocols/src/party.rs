//! Fixture: the key holder's dispatch forgot one variant. The mention of
//! Request::Shutdown in this comment must NOT count — only code does.

impl KeyHolder for Local {
    fn call(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Query { k } => run_query(k),
            Request::Shard(s) => accept_shard(s),
            Request::Drain => drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    // A test that sends the forgotten variant is not a dispatch arm either.
    fn sends_shutdown(kh: &Local) {
        kh.call(Request::Shutdown);
    }
}
